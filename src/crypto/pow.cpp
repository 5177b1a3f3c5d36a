#include "crypto/pow.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "crypto/sha256_avx512.hpp"

namespace mvcom::crypto {
namespace {

/// Formats `nonce` in decimal into `buf` (no allocation); returns the view.
/// 20 chars hold the largest uint64.
std::string_view format_nonce(std::uint64_t nonce,
                              char (&buf)[20]) noexcept {
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), nonce);
  assert(ec == std::errc{});
  (void)ec;
  return {buf, static_cast<std::size_t>(end - buf)};
}

/// Nonces one pass of the lane kernel hashes.
constexpr std::size_t kLanes = 16;
/// Prefix tail plus digits that still leave room for the padding's 0x80
/// byte and 64-bit length in the same block.
constexpr std::size_t kOneBlockBytes = 55;

/// Probed once; magic-static like sha256.cpp's SHA-extension probe.
bool use_lanes() noexcept {
  static const bool available = avx512f_available();
  return available;
}

/// Of `left` attempts from `nonce`, those before it wraps past 2^64 − 1.
std::uint64_t before_wrap(std::uint64_t nonce, std::uint64_t left) noexcept {
  const std::uint64_t to_wrap = std::uint64_t{0} - nonce;  // 0 means 2^64
  return to_wrap == 0 ? left : std::min(left, to_wrap);
}

}  // namespace

PowTarget PowTarget::from_difficulty_bits(int bits) {
  if (bits < 0 || bits > 63) {
    throw std::invalid_argument("PoW difficulty must be 0..63 bits, got " +
                                std::to_string(bits));
  }
  return PowTarget{std::numeric_limits<std::uint64_t>::max() >> bits};
}

double PowTarget::expected_attempts() const noexcept {
  if (leading64_below == 0) return std::numeric_limits<double>::infinity();
  // Success probability per attempt is target / 2^64.
  return 0x1.0p64 / static_cast<double>(leading64_below);
}

PowPrefix::PowPrefix(std::string_view epoch_randomness) noexcept {
  head_.update(epoch_randomness);
  head_.update("|");
}

Digest PowPrefix::digest(std::string_view identity,
                         std::uint64_t nonce) const noexcept {
  char buf[20];
  Sha256 h = head_;
  h.update(identity);
  h.update("|");
  h.update(format_nonce(nonce, buf));
  return h.finalize();
}

Digest pow_digest(std::string_view epoch_randomness, std::string_view identity,
                  std::uint64_t nonce) noexcept {
  return PowPrefix(epoch_randomness).digest(identity, nonce);
}

PowMidstate::PowMidstate(std::string_view epoch_randomness,
                         std::string_view identity) noexcept {
  const auto absorb = [this](std::string_view piece) {
    prefix_len_ += piece.size();
    while (!piece.empty()) {
      const std::size_t take = std::min(piece.size(), 64 - tail_len_);
      std::memcpy(tail_.data() + tail_len_, piece.data(), take);
      piece.remove_prefix(take);
      tail_len_ += take;
      if (tail_len_ == 64) {
        sha256_compress(chain_.data(), tail_.data(), 1);
        tail_len_ = 0;
      }
    }
  };
  absorb(epoch_randomness);
  absorb("|");
  absorb(identity);
  absorb("|");
}

void PowMidstate::lay_out(Attempt& attempt) const noexcept {
  char buf[20];
  const std::string_view digits = format_nonce(attempt.nonce, buf);
  std::memcpy(attempt.block.data() + tail_len_, digits.data(), digits.size());
  attempt.width = digits.size();
  // FIPS 180-4 padding: 0x80, zeros, then the message length in bits as a
  // big-endian 64-bit word ending the last block. It fits in the tail
  // block while tail + digits <= 55 bytes.
  const std::size_t used = tail_len_ + digits.size();
  attempt.blocks = used <= 55 ? 1 : 2;
  const std::size_t end = 64 * attempt.blocks;
  attempt.block[used] = 0x80;
  std::memset(attempt.block.data() + used + 1, 0, end - 8 - used - 1);
  const std::uint64_t bits = (prefix_len_ + digits.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    attempt.block[end - 8 + i] =
        static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
}

void PowMidstate::advance(Attempt& attempt) const noexcept {
  // Carry through the trailing '9's in place.
  std::uint8_t* const digits = attempt.block.data() + tail_len_;
  ++attempt.nonce;
  std::size_t pos = attempt.width;
  while (pos > 0 && digits[pos - 1] == '9') digits[--pos] = '0';
  if (pos > 0 && attempt.nonce != 0) {
    ++digits[pos - 1];
  } else {
    // The nonce gained a digit, or wrapped past 2^64 − 1 to 0: re-pad.
    lay_out(attempt);
  }
}

Digest PowMidstate::digest(std::uint64_t nonce) const noexcept {
  Attempt attempt{tail_, nonce};
  lay_out(attempt);
  std::array<std::uint32_t, 8> state = chain_;
  sha256_compress(state.data(), attempt.block.data(), attempt.blocks);
  return digest_of(state.data());
}

std::optional<PowSolution> PowMidstate::solve(
    PowTarget target, std::uint64_t max_attempts,
    std::uint64_t start_nonce) const noexcept {
  std::uint64_t nonce = start_nonce;
  for (std::uint64_t left = max_attempts; left > 0;) {
    std::uint64_t run = lane_run(nonce, left);
    std::optional<PowSolution> found;
    if (run > 0) {
      found = solve_x16(target, run, nonce);
    } else {
      // What no group can take runs one at a time, up to the wrap (after
      // which a group may fit again) or the end of the budget.
      run = before_wrap(nonce, left);
      found = solve_x1(target, run, nonce);
    }
    if (found) return found;
    nonce += run;
    left -= run;
  }
  return std::nullopt;
}

std::uint64_t PowMidstate::lane_run(std::uint64_t nonce,
                                    std::uint64_t left) const noexcept {
  // Every lane must fit in one block: 55 bytes of tail and digits at most.
  if (!use_lanes() || tail_len_ >= kOneBlockBytes) return 0;
  std::uint64_t room = before_wrap(nonce, left);
  if (const std::size_t width = kOneBlockBytes - tail_len_; width < 20) {
    std::uint64_t one_block_end = 1;  // 10^width
    for (std::size_t i = 0; i < width; ++i) one_block_end *= 10;
    room = nonce < one_block_end ? std::min(room, one_block_end - nonce) : 0;
  }
  return room - room % kLanes;
}

std::optional<PowSolution> PowMidstate::solve_x16(
    PowTarget target, std::uint64_t attempts,
    std::uint64_t nonce) const noexcept {
  assert(attempts >= kLanes && attempts % kLanes == 0);
  Attempt first{tail_, nonce};
  lay_out(first);
  Sha256x16Grind grind{};
  std::copy(chain_.begin(), chain_.end(), grind.chain);
  std::memcpy(grind.block, first.block.data(), sizeof grind.block);
  grind.digits_at = tail_len_;
  grind.width = first.width;
  grind.target = target.leading64_below;
  std::uint32_t state[8];
  const std::uint64_t offset =
      sha256_x16_grind(grind, attempts / kLanes, state);
  if (offset == attempts) return std::nullopt;
  return PowSolution{nonce + offset, digest_of(state)};
}

std::optional<PowSolution> PowMidstate::solve_x1(
    PowTarget target, std::uint64_t attempts,
    std::uint64_t nonce) const noexcept {
  Attempt a{tail_, nonce};
  lay_out(a);
  for (std::uint64_t left = attempts; left > 0; --left) {
    std::array<std::uint32_t, 8> state = chain_;
    sha256_compress(state.data(), a.block.data(), a.blocks);
    // State words 0–1 are the digest's leading 64 bits, big-endian.
    if (((std::uint64_t{state[0]} << 32) | std::uint64_t{state[1]}) <
        target.leading64_below) {
      return PowSolution{a.nonce, digest_of(state.data())};
    }
    advance(a);
  }
  return std::nullopt;
}

std::optional<PowSolution> solve(std::string_view epoch_randomness,
                                 std::string_view identity, PowTarget target,
                                 std::uint64_t max_attempts,
                                 std::uint64_t start_nonce) {
  return PowMidstate(epoch_randomness, identity)
      .solve(target, max_attempts, start_nonce);
}

bool verify(std::string_view epoch_randomness, std::string_view identity,
            PowTarget target, const PowSolution& solution) noexcept {
  const Digest d = pow_digest(epoch_randomness, identity, solution.nonce);
  return d == solution.digest && leading64(d) < target.leading64_below;
}

std::uint32_t committee_of(const Digest& digest, int committee_bits) noexcept {
  assert(committee_bits > 0 && committee_bits <= 32);
  std::uint32_t tail = 0;
  for (std::size_t i = digest.size() - 4; i < digest.size(); ++i) {
    tail = (tail << 8) | digest[i];
  }
  return tail & ((1u << committee_bits) - 1u);
}

common::SimTime model_solve_latency(common::Rng& rng,
                                    common::SimTime expected_solve_time,
                                    double relative_hash_rate) {
  assert(relative_hash_rate > 0.0);
  return common::SimTime(
      rng.exponential(expected_solve_time.seconds() / relative_hash_rate));
}

}  // namespace mvcom::crypto
