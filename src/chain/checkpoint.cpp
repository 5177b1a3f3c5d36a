#include "chain/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "crypto/sha256.hpp"

namespace mvcom::chain {

namespace {

/// Percent-escapes whitespace and '%' so free-form strings (proposer,
/// epoch randomness) survive the space-tokenized format.
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == ' ' || c == '%' || c == '\n' || c == '\r' || c == '\t') {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::optional<std::string> unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    if (i + 2 >= s.size()) return std::nullopt;
    const auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    const int hi = nibble(s[i + 1]);
    const int lo = nibble(s[i + 2]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

std::optional<Digest> digest_from_hex(std::string_view hex) {
  Digest d{};
  if (hex.size() != 2 * d.size()) return std::nullopt;
  for (std::size_t i = 0; i < d.size(); ++i) {
    unsigned byte = 0;
    for (int half = 0; half < 2; ++half) {
      const char c = hex[2 * i + static_cast<std::size_t>(half)];
      byte <<= 4;
      if (c >= '0' && c <= '9') {
        byte |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        byte |= static_cast<unsigned>(c - 'a' + 10);
      } else {
        return std::nullopt;
      }
    }
    d[i] = static_cast<std::uint8_t>(byte);
  }
  return d;
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool write_checkpoint(const RootChain& chain, std::ostream& out) {
  std::ostringstream payload;
  payload << "mvcom-checkpoint v1\n";
  payload << "blocks " << chain.size() << "\n";
  for (std::uint64_t h = 0; h < chain.size(); ++h) {
    const Block& b = chain.at(h);
    payload << "block " << b.header.height << " "
            << format_double(b.header.timestamp) << " " << b.header.tx_count
            << " " << escape(b.header.proposer) << " "
            << escape(b.header.epoch_randomness) << " "
            << crypto::to_hex(b.header.hash()) << " " << b.shard_roots.size();
    for (const Digest& root : b.shard_roots) {
      payload << " " << crypto::to_hex(root);
    }
    payload << "\n";
  }
  const std::string body = payload.str();
  char checksum[24];
  std::snprintf(checksum, sizeof checksum, "%016llx",
                static_cast<unsigned long long>(common::fnv1a(body)));
  out << body << "checksum " << checksum << "\n";
  out.flush();
  return static_cast<bool>(out);
}

bool write_checkpoint_file(const RootChain& chain, const std::string& path) {
  std::ostringstream buffer;
  if (!write_checkpoint(chain, buffer)) return false;
  const std::string text = buffer.str();

  // Write the whole file beside the target, make it durable, then rename it
  // over the target: a kill at any instant leaves either the previous
  // checkpoint or the new one, never a torn mix.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  bool ok = true;
  for (std::size_t done = 0; ok && done < text.size();) {
    const ::ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) done += static_cast<std::size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) ::unlink(tmp.c_str());
  return ok;
}

std::optional<RootChain> load_checkpoint(std::istream& in) {
  // Slurp and split the checksum line off the payload first: a truncated
  // file (daemon killed mid-write) must fail here, before any parsing.
  std::ostringstream slurp;
  slurp << in.rdbuf();
  const std::string text = slurp.str();
  const std::size_t checksum_at = text.rfind("checksum ");
  if (checksum_at == std::string::npos) return std::nullopt;
  // The file must end exactly with "checksum <16 hex>\n" — a file cut even
  // one byte short (torn write) is rejected outright.
  constexpr std::size_t kChecksumLine = 9 + 16 + 1;
  if (text.size() != checksum_at + kChecksumLine || text.back() != '\n') {
    return std::nullopt;
  }
  const std::string body = text.substr(0, checksum_at);
  std::string tag;
  const std::string stored_checksum = text.substr(checksum_at + 9, 16);
  char computed[24];
  std::snprintf(computed, sizeof computed, "%016llx",
                static_cast<unsigned long long>(common::fnv1a(body)));
  if (stored_checksum != computed) return std::nullopt;

  std::istringstream lines(body);
  std::string magic;
  std::string version;
  lines >> magic >> version;
  if (magic != "mvcom-checkpoint" || version != "v1") return std::nullopt;
  std::size_t count = 0;
  lines >> tag >> count;
  if (tag != "blocks" || count == 0) return std::nullopt;

  std::optional<RootChain> chain;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t height = 0;
    double timestamp = 0.0;
    std::uint64_t tx_count = 0;
    std::string proposer_esc;
    std::string randomness_esc;
    std::string hash_hex;
    std::size_t num_roots = 0;
    lines >> tag >> height >> timestamp >> tx_count >> proposer_esc >>
        randomness_esc >> hash_hex >> num_roots;
    if (!lines || tag != "block" || height != i) return std::nullopt;
    std::vector<Digest> roots;
    roots.reserve(num_roots);
    for (std::size_t r = 0; r < num_roots; ++r) {
      std::string root_hex;
      lines >> root_hex;
      const auto root = digest_from_hex(root_hex);
      if (!lines || !root) return std::nullopt;
      roots.push_back(*root);
    }
    const auto proposer = unescape(proposer_esc);
    const auto randomness = unescape(randomness_esc);
    const auto stored_hash = digest_from_hex(hash_hex);
    if (!proposer || !randomness || !stored_hash) return std::nullopt;

    if (i == 0) {
      // Replaying RootChain's own genesis construction must land on the
      // stored header hash — this pins every genesis field at once.
      chain.emplace(*randomness);
      if (chain->at(0).header.hash() != *stored_hash) return std::nullopt;
      continue;
    }
    Block block = Block::assemble(&chain->tip().header, std::move(roots),
                                  tx_count, timestamp, *proposer, *randomness);
    if (block.header.hash() != *stored_hash) return std::nullopt;
    if (chain->append(std::move(block)).has_value()) return std::nullopt;
  }
  return chain;
}

std::optional<RootChain> load_checkpoint_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return load_checkpoint(in);
}

}  // namespace mvcom::chain
