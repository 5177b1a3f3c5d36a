#include "txn/trace_io.hpp"

#include <charconv>
#include <stdexcept>
#include <string>

#include "common/csv.hpp"

namespace mvcom::txn {
namespace {

std::uint64_t parse_u64(const std::string& s, const char* field) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::runtime_error(std::string("trace CSV: bad ") + field + ": " + s);
  }
  return v;
}

double parse_f64(const std::string& s, const char* field) {
  try {
    std::size_t idx = 0;
    const double v = std::stod(s, &idx);
    if (idx != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("trace CSV: bad ") + field + ": " + s);
  }
}

std::string join_accounts(const std::vector<std::uint32_t>& accounts) {
  std::string out;
  for (std::size_t i = 0; i < accounts.size(); ++i) {
    if (i > 0) out += ';';
    out += std::to_string(accounts[i]);
  }
  return out;
}

}  // namespace

void write_trace_csv(const Trace& trace, const std::filesystem::path& path) {
  common::CsvWriter writer(path);
  writer.write_row({"blockID", "bhash", "btime", "txs"});
  for (const BlockRecord& b : trace.blocks) {
    writer.write_row({std::to_string(b.block_id), b.bhash,
                      std::to_string(b.btime), std::to_string(b.tx_count)});
  }
}

Trace load_trace_csv(const std::filesystem::path& path) {
  const common::CsvFile file = common::read_csv(path, /*expect_header=*/true);
  if (file.header != common::CsvRow{"blockID", "bhash", "btime", "txs"}) {
    throw std::runtime_error("trace CSV: unexpected header in " + path.string());
  }
  Trace trace;
  trace.blocks.reserve(file.rows.size());
  for (const auto& row : file.rows) {
    BlockRecord b;
    b.block_id = parse_u64(row[0], "blockID");
    b.bhash = row[1];
    b.btime = parse_f64(row[2], "btime");
    b.tx_count = parse_u64(row[3], "txs");
    trace.blocks.push_back(std::move(b));
  }
  return trace;
}

void write_account_txs_csv(const std::vector<AccountTx>& txs,
                           const std::filesystem::path& path) {
  common::CsvWriter writer(path);
  writer.write_row({"txID", "ts", "sender", "writes", "reads"});
  for (const AccountTx& tx : txs) {
    writer.write_row({std::to_string(tx.tx_id), std::to_string(tx.timestamp),
                      std::to_string(tx.sender), join_accounts(tx.writes),
                      join_accounts(tx.reads)});
  }
}

}  // namespace mvcom::txn
