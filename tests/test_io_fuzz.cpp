// Fuzz-style round-trip tests for the two on-disk formats the pipeline
// depends on: RFC-4180 CSV (common/csv) and the block-trace schema
// (txn/trace_io). Adversarial inputs — embedded quotes, separators and
// newlines inside fields, truncated files at every byte boundary, zero-TX
// blocks, malformed numerics — must either round-trip losslessly or fail
// with the documented exception types and a useful message; never crash,
// never misparse silently.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "txn/trace_generator.hpp"
#include "txn/trace_io.hpp"

namespace {

using mvcom::common::CsvRow;
using mvcom::common::CsvWriter;
using mvcom::common::Rng;
using mvcom::txn::BlockRecord;
using mvcom::txn::Trace;

std::filesystem::path tmp_path(const std::string& name) {
  return std::filesystem::path(testing::TempDir()) / name;
}

/// Field alphabet weighted toward the characters that break naive CSV
/// implementations: separators, quotes, CR/LF, and the empty string.
std::string adversarial_field(Rng& rng) {
  static constexpr const char* kAtoms[] = {
      ",",  "\"", "\n", "\r\n", "\"\"", "a", "xyz", " ", "\t",
      ";",  "0",  "-1", "\",\"", "end\"", "\"start", "",
  };
  std::string field;
  const std::size_t atoms = rng.below(6);
  for (std::size_t i = 0; i < atoms; ++i) {
    field += kAtoms[rng.below(sizeof kAtoms / sizeof kAtoms[0])];
  }
  return field;
}

TEST(CsvFuzzTest, AdversarialFieldsRoundTripLosslessly) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t cols = 1 + rng.below(5);
    const std::size_t rows = 1 + rng.below(8);
    std::vector<CsvRow> expected;
    const auto path = tmp_path("fuzz_roundtrip.csv");
    {
      CsvWriter writer(path);
      for (std::size_t r = 0; r < rows; ++r) {
        CsvRow row;
        for (std::size_t c = 0; c < cols; ++c) {
          row.push_back(adversarial_field(rng));
        }
        // A lone empty field renders as a blank line, which the reader
        // documentedly skips — the one genuinely ambiguous encoding.
        if (cols == 1 && row[0].empty()) row[0] = "x";
        writer.write_row(row);
        expected.push_back(std::move(row));
      }
    }
    const auto file = mvcom::common::read_csv(path, /*expect_header=*/false);
    ASSERT_EQ(file.rows.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(file.rows[r], expected[r]) << "row " << r;
    }
  }
}

TEST(CsvFuzzTest, ParserEitherParsesOrThrowsTheDocumentedType) {
  // Random byte soup into parse_csv_line: the contract is "fields or
  // std::invalid_argument" — anything else (crash, wrong exception) fails.
  // When it does parse, re-escaping the fields must reproduce them exactly
  // (no silent data loss on weird-but-legal lines).
  static constexpr char kBytes[] = ",\"\n\r ab1;\\";
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::string line;
    const std::size_t len = rng.below(24);
    for (std::size_t i = 0; i < len; ++i) {
      line += kBytes[rng.below(sizeof kBytes - 1)];
    }
    try {
      const CsvRow fields = mvcom::common::parse_csv_line(line);
      std::string rebuilt;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) rebuilt += ',';
        rebuilt += mvcom::common::escape_csv_field(fields[i]);
      }
      EXPECT_EQ(mvcom::common::parse_csv_line(rebuilt), fields)
          << "canonicalized line does not reparse to the same fields";
    } catch (const std::invalid_argument&) {
      // Documented rejection (malformed quoting / embedded newline) — fine.
    }
  }
}

TEST(CsvFuzzTest, InconsistentArityIsRejectedNotPadded) {
  const auto path = tmp_path("fuzz_arity.csv");
  std::ofstream(path) << "a,b,c\n1,2,3\n4,5\n";
  EXPECT_THROW(mvcom::common::read_csv(path, /*expect_header=*/true),
               std::runtime_error);
}

TEST(CsvFuzzTest, UnterminatedQuoteAtEofThrows) {
  const auto path = tmp_path("fuzz_unterminated.csv");
  std::ofstream(path) << "a,b\n\"never closed,2\n";
  EXPECT_THROW(mvcom::common::read_csv(path, /*expect_header=*/true),
               std::invalid_argument);
}

/// A handcrafted trace exercising the schema's corners: a zero-TX block, a
/// hash field full of CSV metacharacters, and integral btimes (the writer
/// renders btime via std::to_string, so only values that survive its fixed
/// precision round-trip bit-exactly).
Trace corner_trace() {
  Trace trace;
  trace.blocks.push_back({1, "aa,bb", 1000.0, 5});
  trace.blocks.push_back({2, "quote\"inside", 1600.0, 0});  // zero-TX shard
  trace.blocks.push_back({3, "multi\nline", 2200.5, 123456789});
  trace.blocks.push_back({4, "", 2800.25, 1});
  return trace;
}

TEST(TraceFuzzTest, CornerTraceRoundTripsExactly) {
  const Trace trace = corner_trace();
  const auto path = tmp_path("fuzz_trace.csv");
  mvcom::txn::write_trace_csv(trace, path);
  const Trace loaded = mvcom::txn::load_trace_csv(path);
  ASSERT_EQ(loaded.blocks.size(), trace.blocks.size());
  for (std::size_t i = 0; i < trace.blocks.size(); ++i) {
    EXPECT_EQ(loaded.blocks[i].block_id, trace.blocks[i].block_id);
    EXPECT_EQ(loaded.blocks[i].bhash, trace.blocks[i].bhash);
    EXPECT_DOUBLE_EQ(loaded.blocks[i].btime, trace.blocks[i].btime);
    EXPECT_EQ(loaded.blocks[i].tx_count, trace.blocks[i].tx_count);
  }
}

TEST(TraceFuzzTest, TruncationAtEveryByteFailsCleanlyOrLoadsAPrefix) {
  // Write a real generated trace, then re-load every byte-prefix of the
  // file. Each prefix must either load (as ≤ the original block count —
  // truncation at a record boundary is indistinguishable from a shorter
  // file) or throw one of the two documented exception types. Any other
  // outcome (other exception, crash, *more* blocks) is a parser bug.
  Rng rng(7);
  mvcom::txn::TraceGeneratorConfig config;
  config.num_blocks = 12;
  config.target_total_txs = 4000;
  const Trace trace = mvcom::txn::generate_trace(config, rng);
  const auto path = tmp_path("fuzz_trace_full.csv");
  mvcom::txn::write_trace_csv(trace, path);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 100u);

  const auto prefix_path = tmp_path("fuzz_trace_prefix.csv");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::ofstream(prefix_path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, cut);
    try {
      const Trace loaded = mvcom::txn::load_trace_csv(prefix_path);
      EXPECT_LE(loaded.blocks.size(), trace.blocks.size());
    } catch (const std::runtime_error&) {
      // Bad header / arity / numeric field — the documented failure mode.
    } catch (const std::invalid_argument&) {
      // Truncation inside a quoted field — also documented.
    }
  }
}

TEST(TraceFuzzTest, MalformedNumericFieldsReportTheField) {
  const struct {
    const char* row;
    const char* expect_in_message;
  } kCases[] = {
      {"1,aa,100.0,12x", "txs"},
      {"1,aa,100.0,-5", "txs"},
      {"1,aa,not-a-time,12", "btime"},
      {"one,aa,100.0,12", "blockID"},
      {"1,aa,100.0,", "txs"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.row);
    const auto path = tmp_path("fuzz_trace_bad.csv");
    std::ofstream(path) << "blockID,bhash,btime,txs\n" << c.row << "\n";
    try {
      (void)mvcom::txn::load_trace_csv(path);
      FAIL() << "malformed row was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_message),
                std::string::npos)
          << "error message '" << e.what() << "' does not name the field";
    }
  }
}

TEST(TraceFuzzTest, WrongHeaderIsRejected) {
  const auto path = tmp_path("fuzz_trace_header.csv");
  std::ofstream(path) << "id,hash,time,count\n1,aa,100.0,12\n";
  EXPECT_THROW(mvcom::txn::load_trace_csv(path), std::runtime_error);
}

TEST(TraceFuzzTest, MissingFileThrowsRuntimeError) {
  EXPECT_THROW(
      mvcom::txn::load_trace_csv(tmp_path("does_not_exist_anywhere.csv")),
      std::runtime_error);
}

}  // namespace
