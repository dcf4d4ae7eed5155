#include "data/csv_reader.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace rock {

namespace {

/// Splits one CSV line, trimming whitespace around fields. Quoting is not
/// supported — UCI categorical files never quote.
std::vector<std::string> SplitLine(std::string_view line, char delim) {
  std::vector<std::string> fields = Split(line, delim);
  for (auto& f : fields) f = std::string(Trim(f));
  return fields;
}

}  // namespace

Result<CategoricalDataset> ReadCsvString(const std::string& text,
                                         const CsvOptions& options) {
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  bool schema_ready = false;
  size_t num_columns = 0;
  CategoricalDataset dataset;

  auto build_schema = [&](const std::vector<std::string>& fields,
                          bool from_header) {
    num_columns = fields.size();
    std::vector<std::string> names;
    for (size_t c = 0; c < fields.size(); ++c) {
      if (options.label_column >= 0 &&
          c == static_cast<size_t>(options.label_column)) {
        continue;
      }
      names.push_back(from_header ? fields[c]
                                  : std::string("a").append(std::to_string(c)));
    }
    dataset = CategoricalDataset{Schema(std::move(names))};
    schema_ready = true;
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (options.skip_blank_lines && Trim(line).empty()) continue;
    std::vector<std::string> fields = SplitLine(line, options.delimiter);

    if (!schema_ready) {
      build_schema(fields, options.has_header);
      if (options.has_header) continue;
    }
    if (fields.size() != num_columns) {
      return Status::Corruption("line " + std::to_string(line_no) + ": got " +
                                std::to_string(fields.size()) +
                                " fields, expected " +
                                std::to_string(num_columns));
    }

    std::vector<std::string> values;
    values.reserve(num_columns);
    std::string label;
    bool has_label = false;
    for (size_t c = 0; c < fields.size(); ++c) {
      if (options.label_column >= 0 &&
          c == static_cast<size_t>(options.label_column)) {
        label = fields[c];
        has_label = true;
      } else {
        values.push_back(fields[c]);
      }
    }
    ROCK_RETURN_IF_ERROR(dataset.AddRecord(values, options.missing_token));
    if (has_label) {
      dataset.labels().Append(label);
    }
  }

  if (!schema_ready) {
    return Status::InvalidArgument("CSV input contains no data rows");
  }
  return dataset;
}

Result<CategoricalDataset> ReadCsvFile(const std::string& path,
                                       const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("read failure on '" + path + "'");
  return ReadCsvString(buf.str(), options);
}

}  // namespace rock
