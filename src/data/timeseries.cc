#include "data/timeseries.h"

#include <cmath>

namespace rock {

PriceMove ClassifyMove(double prev, double cur, double epsilon) {
  const double delta = cur - prev;
  const double tol = epsilon * std::max(std::abs(prev), 1.0);
  if (delta > tol) return PriceMove::kUp;
  if (delta < -tol) return PriceMove::kDown;
  return PriceMove::kNo;
}

namespace {
const char* MoveName(PriceMove m) {
  switch (m) {
    case PriceMove::kUp:
      return "Up";
    case PriceMove::kDown:
      return "Down";
    case PriceMove::kNo:
      return "No";
  }
  return "No";
}
}  // namespace

Result<CategoricalDataset> TimeSeriesToCategorical(const TimeSeriesSet& set,
                                                   double epsilon) {
  if (set.num_dates < 2) {
    return Status::InvalidArgument(
        "time-series set needs at least two dates to form transitions");
  }
  std::vector<std::string> attr_names;
  attr_names.reserve(set.num_dates - 1);
  for (size_t t = 1; t < set.num_dates; ++t) {
    attr_names.push_back(std::string("d").append(std::to_string(t)));
  }
  CategoricalDataset out{Schema(std::move(attr_names))};

  for (const TimeSeries& ts : set.series) {
    if (ts.prices.size() != set.num_dates) {
      return Status::InvalidArgument("series '" + ts.name +
                                     "' length does not match date axis");
    }
    std::vector<ValueId> values(set.num_dates - 1, kMissingValue);
    for (size_t t = 1; t < set.num_dates; ++t) {
      if (!ts.prices[t - 1].has_value() || !ts.prices[t].has_value()) continue;
      PriceMove m = ClassifyMove(*ts.prices[t - 1], *ts.prices[t], epsilon);
      values[t - 1] = out.schema().InternValue(t - 1, MoveName(m));
    }
    ROCK_RETURN_IF_ERROR(out.AddRecord(Record(std::move(values))));
    if (ts.group.empty()) {
      out.labels().AppendUnlabeled();
    } else {
      out.labels().Append(ts.group);
    }
  }
  return out;
}

}  // namespace rock
