#include "synth/fund_generator.h"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/random.h"

namespace rock {

Status FundGeneratorOptions::Validate() const {
  if (num_dates < 2) {
    return Status::InvalidArgument("num_dates must be >= 2");
  }
  if (!(group_fidelity >= 0.0 && group_fidelity <= 1.0) ||
      !(pair_fidelity >= 0.0 && pair_fidelity <= 1.0)) {
    return Status::InvalidArgument("fidelities must be in [0, 1]");
  }
  if (!(young_fund_fraction >= 0.0 && young_fund_fraction < 1.0)) {
    return Status::InvalidArgument("young_fund_fraction must be in [0, 1)");
  }
  if (p_up < 0.0 || p_down < 0.0 || p_up + p_down > 1.0) {
    return Status::InvalidArgument("invalid move distribution");
  }
  return Status::OK();
}

namespace {

/// Table 4's sixteen named clusters with their fund counts.
struct GroupSpec {
  const char* name;
  size_t count;
};

constexpr std::array<GroupSpec, 16> kGroups = {{
    {"Bonds 1", 4},
    {"Bonds 2", 10},
    {"Bonds 3", 24},
    {"Bonds 4", 15},
    {"Bonds 5", 5},
    {"Bonds 6", 3},
    {"Bonds 7", 26},
    {"Financial Service", 3},
    {"Precious Metals", 10},
    {"International 1", 4},
    {"International 2", 4},
    {"International 3", 6},
    {"Balanced", 5},
    {"Growth 1", 8},
    {"Growth 2", 107},
    {"Growth 3", 70},
}};

/// Daily direction: +1, −1 or 0.
int DrawDirection(double p_up, double p_down, Rng* rng) {
  const double u = rng->UniformDouble();
  if (u < p_up) return 1;
  if (u < p_up + p_down) return -1;
  return 0;
}

}  // namespace

Result<TimeSeriesSet> GenerateFundData(const FundGeneratorOptions& options) {
  ROCK_RETURN_IF_ERROR(options.Validate());
  Rng rng(options.seed);

  TimeSeriesSet out;
  out.num_dates = options.num_dates;

  // Latent factor per group/pair: one direction per day.
  auto make_factor = [&] {
    std::vector<int> f(options.num_dates - 1);
    for (int& d : f) d = DrawDirection(options.p_up, options.p_down, &rng);
    return f;
  };

  size_t fund_counter = 0;
  auto make_fund = [&](const std::string& group, const std::vector<int>* factor,
                       double fidelity) {
    TimeSeries ts;
    ts.name = std::string("F").append(std::to_string(fund_counter++));
    ts.group = group;
    ts.prices.assign(options.num_dates, std::nullopt);

    size_t inception = 0;
    if (rng.Bernoulli(options.young_fund_fraction)) {
      // Launched somewhere in the first ~70% of the axis.
      inception = 1 + static_cast<size_t>(rng.UniformUint64(
                          (options.num_dates * 7) / 10));
    }
    double price = 8.0 + 40.0 * rng.UniformDouble();
    ts.prices[inception] = price;
    for (size_t t = inception + 1; t < options.num_dates; ++t) {
      int dir;
      if (factor != nullptr && rng.Bernoulli(fidelity)) {
        dir = (*factor)[t - 1];
      } else {
        dir = DrawDirection(options.p_up, options.p_down, &rng);
      }
      if (dir != 0) {
        const double pct = 0.002 + 0.006 * rng.UniformDouble();
        price *= 1.0 + static_cast<double>(dir) * pct;
      }
      ts.prices[t] = price;
    }
    out.series.push_back(std::move(ts));
  };

  size_t budget = options.total_funds;
  // Pairs live near the two biggest groups (Growth 2 / Growth 3); their
  // shadow funds are charged against the host's Table 4 quota so group
  // counts stay exact.
  constexpr size_t kHostA = 14;  // Growth 2
  constexpr size_t kHostB = 15;  // Growth 3
  std::vector<size_t> shadow_quota(kGroups.size(), 0);
  const size_t pairs_a = (options.num_pairs + 1) / 2;
  const size_t pairs_b = options.num_pairs - pairs_a;
  shadow_quota[kHostA] =
      std::min(kGroups[kHostA].count, pairs_a * options.shadows_per_pair);
  shadow_quota[kHostB] =
      std::min(kGroups[kHostB].count, pairs_b * options.shadows_per_pair);

  std::vector<std::vector<int>> group_factors;
  group_factors.reserve(kGroups.size());
  for (size_t gi = 0; gi < kGroups.size(); ++gi) {
    group_factors.push_back(make_factor());
    const size_t regular = kGroups[gi].count - shadow_quota[gi];
    for (size_t i = 0; i < regular && budget > 0; ++i, --budget) {
      make_fund(kGroups[gi].name, &group_factors.back(),
                options.group_fidelity);
    }
  }

  for (size_t p = 0; p < options.num_pairs && budget >= 2; ++p) {
    const size_t host = (p < pairs_a) ? kHostA : kHostB;
    const std::vector<int>& host_factor = group_factors[host];
    // Pair factor: host factor diluted to pair_host_affinity.
    std::vector<int> pair_factor(options.num_dates - 1);
    for (size_t t = 0; t + 1 < options.num_dates; ++t) {
      pair_factor[t] = rng.Bernoulli(options.pair_host_affinity)
                           ? host_factor[t]
                           : DrawDirection(options.p_up, options.p_down, &rng);
    }
    const std::string label = "pair" + std::to_string(p);
    make_fund(label, &pair_factor, options.pair_fidelity);
    make_fund(label, &pair_factor, options.pair_fidelity);
    budget -= 2;
    // Shadow funds: neighbors of both twins and of the host group; they
    // carry the host group's label (they genuinely are host-group funds).
    // Each shadow tracks the pair factor on ~half its days and the host
    // factor on the rest — close to both sides at once.
    for (size_t s = 0; s < options.shadows_per_pair && budget > 0;
         ++s, --budget) {
      std::vector<int> shadow_factor(options.num_dates - 1);
      for (size_t t = 0; t + 1 < options.num_dates; ++t) {
        shadow_factor[t] = rng.Bernoulli(options.shadow_pair_mix)
                               ? pair_factor[t]
                               : host_factor[t];
      }
      // Fidelity 1: the day mixing already encodes the shadow's noise.
      make_fund(kGroups[host].name, &shadow_factor, 1.0);
    }
  }
  while (budget > 0) {
    make_fund("single", nullptr, 0.0);
    --budget;
  }

  return out;
}

}  // namespace rock
