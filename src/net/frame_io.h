// Buffered fpss-wire frame I/O, shared by net::RouteServer and
// net::RouteClient.
//
// Two layers:
//
//   * FrameReader — the socket-free reassembly core: bytes go in through
//     space()/commit(), validated frames come out of next(). It owns one
//     fixed kBufferBytes receive buffer and nothing else until a header
//     passes decode_frame_header, so the pre-allocation gate holds: a
//     hostile length costs at most the fixed buffer. A frame that fits the
//     buffer is handed out as a zero-copy view into it; a larger one gets
//     an allocation of exactly payload_len, filled from what the buffer
//     already holds and then straight from the wire.
//   * FrameStream — the reader plus a socket: recv(MSG_DONTWAIT) first,
//     poll() (and the steady_clock deadline) only on EAGAIN; an output
//     buffer that coalesces appended frames into one send(MSG_DONTWAIT),
//     again polling only on EAGAIN. A read flushes pending output as soon
//     as no complete frame is left buffered, before it takes more input:
//     replies to the frames one recv brought share one send, and a peer is
//     never left waiting on replies while this side waits for input.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "net/wire.h"

namespace fpss::net {

/// One validated frame: the header passed decode_frame_header and the
/// payload matched its checksum. `payload` stays valid until the next
/// next()/commit()/reset() on the reader that produced it.
struct Frame {
  FrameHeader header;
  std::string_view payload;
};

class FrameReader {
 public:
  /// The per-connection receive buffer. Fixed: a frame that fits is
  /// reassembled in place; anything larger is allocated exactly, after its
  /// header validated.
  static constexpr std::size_t kBufferBytes = 16 * 1024;

  enum class Status : std::uint8_t {
    kFrame,     ///< `frame` holds the next validated frame
    kNeedMore,  ///< the buffered bytes end mid-frame; commit more
    kRejected,  ///< header or checksum invalid; see rejection()
  };

  explicit FrameReader(const WireLimits& limits);

  /// Takes the next buffered frame. After kRejected the stream is
  /// unusable (a length-prefixed stream cannot resynchronize) and every
  /// further call repeats the rejection.
  Status next(Frame& frame);

  /// Where the next wire bytes go: the buffer's free tail, or the unfilled
  /// rest of a large frame's payload. Non-empty whenever next() last
  /// returned kNeedMore.
  std::span<char> space();
  /// Accounts `n` bytes written into the last space().
  void commit(std::size_t n);

  /// The payload of the frame next() just returned, owned: a large
  /// frame's exact-size allocation is moved out, a buffered one copied.
  std::string take_payload(const Frame& frame);

  /// True between frames: no byte of a next frame is buffered. When false,
  /// the stream holds input a poll() on the socket can no longer see.
  bool at_boundary() const { return !large_ && begin_ == end_; }
  /// True once the current frame's whole header is buffered.
  bool header_buffered() const {
    return large_ || end_ - begin_ >= kFrameHeaderBytes;
  }
  /// Why the stream was rejected: the typed code and message a server
  /// puts in its kError frame.
  WireStatus rejection_status() const { return reject_status_; }
  const std::string& rejection() const { return reject_message_; }

  /// Drops everything buffered (a redial starts clean).
  void reset();

 private:
  Status reject(WireStatus status, std::string message);

  WireLimits limits_;
  std::unique_ptr<char[]> buffer_;
  std::size_t begin_ = 0;  ///< first unconsumed buffered byte
  std::size_t end_ = 0;    ///< one past the last buffered byte
  /// A frame too large for the buffer: its validated header, its exact
  /// payload allocation, and how much of that is filled.
  bool large_ = false;
  FrameHeader large_header_;
  std::string large_payload_;
  std::size_t large_filled_ = 0;
  bool rejected_ = false;
  WireStatus reject_status_ = WireStatus::kMalformed;
  std::string reject_message_;
};

class FrameStream {
 public:
  enum class ReadStatus : std::uint8_t {
    kFrame,     ///< a validated frame arrived
    kClosed,    ///< orderly EOF between frames
    kIdle,      ///< the idle wait elapsed before a next frame began
    kStopped,   ///< the stop flag was set while between frames
    kTimeout,   ///< the read deadline expired
    kRejected,  ///< invalid header or checksum; see reader()
    kError,     ///< socket error, or EOF mid-frame
  };

  explicit FrameStream(const WireLimits& limits, int fd = -1);

  /// Rebinds to `fd` (or -1), dropping all buffered input and output.
  void reset(int fd);
  int fd() const { return fd_; }

  /// Reads the next frame. Each phase — the wait for a frame to begin, its
  /// header, its payload — may take at most `timeout_ms` from the first
  /// time the socket has nothing to give; the deadline restarts when a
  /// frame's first byte arrives and when its header completes. While
  /// between frames, a set `stopping` flag aborts the wait (kStopped), and
  /// an `idle_ms` >= 0 bounds it instead of `timeout_ms` (kIdle).
  /// Mid-frame only the deadline ends the wait.
  ReadStatus read(Frame& frame, int timeout_ms,
                  const std::atomic<bool>* stopping = nullptr,
                  int idle_ms = -1);

  const FrameReader& reader() const { return reader_; }
  /// FrameReader::take_payload for the frame read() just returned.
  std::string take_payload(const Frame& frame) {
    return reader_.take_payload(frame);
  }

  /// Queues a frame behind any already appended; nothing is sent yet.
  void append(FrameType type, std::string_view payload);
  /// Sends everything appended, giving up `timeout_ms` after the socket
  /// first stops taking bytes (a peer that never reads must not pin a
  /// worker). The buffer is empty afterwards either way.
  bool flush(int timeout_ms);
  /// append() + flush().
  bool write(FrameType type, std::string_view payload, int timeout_ms);

 private:
  int fd_;
  FrameReader reader_;
  std::string out_;
};

}  // namespace fpss::net
