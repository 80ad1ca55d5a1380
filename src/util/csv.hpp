#pragma once
// Tiny CSV writer (RFC-4180 quoting) so benches can dump raw series for
// external plotting alongside their ASCII tables.

#include <fstream>
#include <string>
#include <vector>

namespace peertrack::util {

class CsvWriter {
 public:
  /// Opens (truncates) `path`. Check IsOpen() before writing.
  explicit CsvWriter(const std::string& path);

  bool IsOpen() const { return out_.is_open(); }

  void WriteRow(const std::vector<std::string>& cells);

 private:
  static std::string Escape(const std::string& cell);
  std::ofstream out_;
};

}  // namespace peertrack::util
