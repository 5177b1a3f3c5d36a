#pragma once
// Binary wire format for the process fabric (DESIGN.md §17).
//
// Everything that crosses a coordinator↔worker pipe is a *frame*:
//
//   offset  size  field
//   0       4     payload length (u32, little-endian) — excludes the header
//   4       1     frame type (FrameType)
//   5       8     FNV-1a checksum of the payload bytes (u64, little-endian)
//   13      n     payload
//
// The payload encoding is a flat little-endian scalar stream: no field tags,
// no varints, no text. Strings and vectors are length-prefixed (u32).
// Doubles cross as their IEEE-754 bit patterns (bit_cast), so a decoded
// LaneTask is *bitwise*-equal to the encoded one — which is exactly what the
// determinism contract needs: a lane must not be able to tell whether its
// task took a pipe to get to it.
//
// Decoding is zero-copy at the framing layer: a Reader walks a span over the
// receive buffer; only leaf strings/vectors copy out (they outlive the
// buffer). Every read is bounds-checked and every decoder returns false on
// the first violation — truncation at ANY byte offset, a corrupted
// checksum, or an oversized length prefix must never crash or over-read
// (test_fabric fuzzes all three).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sharding/lane.hpp"

namespace mvcom::fabric {

/// Frame header: 4 (length) + 1 (type) + 8 (checksum) bytes.
inline constexpr std::size_t kFrameHeaderBytes = 13;
/// Upper bound on a frame payload. A length prefix beyond this is treated
/// as corruption (it would otherwise let one flipped bit demand a 4 GiB
/// allocation).
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,        // worker → coordinator: alive, payload = worker index
  kTaskBatch = 2,    // coordinator → worker: one epoch's lane tasks
  kResultBatch = 3,  // worker → coordinator: lane results + obs deltas
  kShutdown = 4,     // coordinator → worker: drain and exit
};

/// Per-(counter, labels) increment accumulated by a worker over one epoch.
/// The coordinator folds deltas into its own registry, so fleet-wide
/// counters equal the in-process run's — including after a crash-replay,
/// because a killed worker's partial epoch is never sent.
struct CounterDelta {
  std::string name;
  std::string help;
  std::vector<std::pair<std::string, std::string>> labels;
  std::uint64_t delta = 0;
};

/// One epoch's work for one worker: the subset of lane tasks it owns.
struct TaskBatch {
  std::uint64_t epoch = 0;
  std::vector<sharding::LaneTask> tasks;
};

/// The worker's reply: results aligned 1:1 with the batch's tasks, plus the
/// epoch's counter deltas.
struct ResultBatch {
  std::uint64_t epoch = 0;
  std::vector<sharding::LaneResult> results;
  std::vector<CounterDelta> obs_deltas;
};

// --- encoding -------------------------------------------------------------

/// Appends scalars to a byte buffer (little-endian, packed). The buffer is
/// caller-owned so workers reuse one arena across epochs.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(const std::string& s);

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked cursor over a received payload. All take_* methods return
/// false (and leave the output untouched or partially written — callers
/// must discard on failure) once the cursor would pass the end.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool u8(std::uint8_t& v);
  [[nodiscard]] bool u32(std::uint32_t& v);
  [[nodiscard]] bool u64(std::uint64_t& v);
  [[nodiscard]] bool f64(double& v);
  [[nodiscard]] bool str(std::string& s);
  [[nodiscard]] bool done() const noexcept { return at_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - at_;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t at_ = 0;
};

// Frame assembly: appends a complete frame (header + payload) to `out`.
// `payload` may alias a scratch buffer; the checksum is computed here.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload);

/// A frame parsed out of a receive buffer. `payload` points INTO the buffer
/// (zero-copy) — decode before the buffer is reused.
struct FrameView {
  FrameType type = FrameType::kHello;
  std::span<const std::uint8_t> payload;
};

enum class ParseStatus : std::uint8_t {
  kOk,          // frame extracted; *consumed advanced past it
  kNeedMore,    // buffer holds a prefix of a frame — read more bytes
  kCorrupt,     // bad length prefix, unknown type, or checksum mismatch
};

/// Attempts to parse one frame from `buf` starting at `*consumed`.
/// On kOk advances `*consumed` past the frame.
[[nodiscard]] ParseStatus parse_frame(std::span<const std::uint8_t> buf,
                                      std::size_t* consumed, FrameView* frame);

// --- payload codecs -------------------------------------------------------
// encode_* appends the payload for one frame body to `out` (no header).
// decode_* consumes the entire payload and returns false on any violation
// (truncation, trailing bytes, oversized inner length).

void encode_task(Writer& w, const sharding::LaneTask& task);
[[nodiscard]] bool decode_task(Reader& r, sharding::LaneTask& task);

void encode_result(Writer& w, const sharding::LaneResult& result);
[[nodiscard]] bool decode_result(Reader& r, sharding::LaneResult& result);

void encode_task_batch(std::vector<std::uint8_t>& out, const TaskBatch& batch);
[[nodiscard]] bool decode_task_batch(std::span<const std::uint8_t> payload,
                                     TaskBatch& batch);

void encode_result_batch(std::vector<std::uint8_t>& out,
                         const ResultBatch& batch);
[[nodiscard]] bool decode_result_batch(std::span<const std::uint8_t> payload,
                                       ResultBatch& batch);

}  // namespace mvcom::fabric
