#include "util/csv.hpp"

namespace peertrack::util {

CsvWriter::CsvWriter(const std::string& path) : out_(path, std::ios::trunc) {}

std::string CsvWriter::Escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << Escape(cells[i]);
  }
  out_ << '\n';
}

}  // namespace peertrack::util
