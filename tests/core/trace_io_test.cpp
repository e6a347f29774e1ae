#include "core/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/decomposer.hpp"

namespace bsr::core {
namespace {

RunReport small_run() {
  Decomposer dec;
  RunConfig cfg;
  cfg.n = 4096;
  cfg.b = 512;
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = 0.2;
  return dec.run(cfg);
}

TEST(TraceIo, OneRowPerIterationPlusHeader) {
  const RunReport r = small_run();
  std::ostringstream os;
  write_trace_csv(r, os);
  const std::string text = os.str();
  int lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, static_cast<int>(r.trace.iterations.size()) + 1);
}

TEST(TraceIo, HeaderColumnsMatchRowColumns) {
  const RunReport r = small_run();
  std::ostringstream os;
  const std::string header = write_trace_csv(r, os);
  const std::string text = os.str();
  auto count_commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  const auto first_newline = text.find('\n');
  const auto second_newline = text.find('\n', first_newline + 1);
  const std::string row =
      text.substr(first_newline + 1, second_newline - first_newline - 1);
  EXPECT_EQ(count_commas(header), count_commas(row));
}

TEST(TraceIo, ContainsAbftModeLabels) {
  const RunReport r = small_run();
  std::ostringstream os;
  write_trace_csv(r, os);
  EXPECT_NE(os.str().find("None"), std::string::npos);
}

TEST(TraceIo, FileRoundTrip) {
  const RunReport r = small_run();
  const std::string path = "/tmp/bsr_trace_io_test.csv";
  write_trace_csv(r, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("slack_ms"), std::string::npos);
}

TEST(TraceIo, ThrowsOnBadPath) {
  const RunReport r = small_run();
  EXPECT_THROW(write_trace_csv(r, "/nonexistent_dir_xyz/trace.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace bsr::core
