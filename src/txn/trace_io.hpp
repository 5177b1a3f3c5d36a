#pragma once
// CSV persistence for traces. Two schemas:
//   * block traces — the four-column schema of the paper's dataset:
//     blockID,bhash,btime,txs;
//   * account-TX traces — txID,ts,sender,writes,reads, where writes/reads
//     are ';'-joined account ids inside one CSV field (empty field = empty
//     set). `mvcom xshard --txs-out` writes this schema; nothing in the
//     repository reads it back.

#include <filesystem>
#include <vector>

#include "txn/accounts/model.hpp"
#include "txn/trace.hpp"

namespace mvcom::txn {

/// Writes `trace` as CSV with header "blockID,bhash,btime,txs".
void write_trace_csv(const Trace& trace, const std::filesystem::path& path);

/// Loads a trace written by write_trace_csv (or any file with the same
/// schema). Throws std::runtime_error on malformed input.
[[nodiscard]] Trace load_trace_csv(const std::filesystem::path& path);

/// Writes account TXs as CSV with header "txID,ts,sender,writes,reads".
void write_account_txs_csv(const std::vector<AccountTx>& txs,
                           const std::filesystem::path& path);

}  // namespace mvcom::txn
