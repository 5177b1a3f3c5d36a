#pragma once
// Root-chain checkpointing for the streaming pipeline's daemon mode.
//
// `mvcom serve` runs indefinitely; a crash or SIGINT must not cost the whole
// run, so the serve loop periodically snapshots the root chain to a
// checksummed text file. The format stores every block's full header and
// shard roots; loading replays the blocks through RootChain::append, so a
// restored chain has passed exactly the same hash-link / Merkle / timestamp
// validation as the live one — corruption shows up as a load failure, never
// as a silently-diverged chain. A trailing FNV-1a checksum over the payload
// catches truncation (the classic torn-write failure of a killed daemon)
// before the structural checks even run.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "chain/root_chain.hpp"

namespace mvcom::chain {

/// Serializes `chain` to `out`. Returns false only on stream failure.
bool write_checkpoint(const RootChain& chain, std::ostream& out);

/// Crash-consistent write_checkpoint to a file: writes `<path>.tmp`, fsyncs
/// it and renames it over `path`, so a kill mid-write leaves the previous
/// checkpoint intact. Returns false on any I/O failure, leaving `path`
/// untouched.
bool write_checkpoint_file(const RootChain& chain, const std::string& path);

/// Parses a checkpoint and replays it into a fresh RootChain. Returns
/// nullopt when the checksum, the format, or any append-time validation
/// (hash link, Merkle root, timestamp monotonicity) fails.
[[nodiscard]] std::optional<RootChain> load_checkpoint(std::istream& in);

/// File-path convenience for load_checkpoint.
[[nodiscard]] std::optional<RootChain> load_checkpoint_file(
    const std::string& path);

}  // namespace mvcom::chain
