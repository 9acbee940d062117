#include "net/frame_io.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace fpss::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Output capacity kept across flushes. A burst of small replies reuses
/// it; a snapshot chunk's worth is handed back after the send.
constexpr std::size_t kKeepOutputBytes = 4 * FrameReader::kBufferBytes;

/// Remaining budget in ms, clipped to the 100ms poll slice that keeps
/// stop flags and idle waits responsive.
int next_slice_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>(left < 100 ? left : 100);
}

bool would_block(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

}  // namespace

// --- FrameReader -----------------------------------------------------------

FrameReader::FrameReader(const WireLimits& limits)
    : limits_(limits),
      buffer_(std::make_unique_for_overwrite<char[]>(kBufferBytes)) {}

FrameReader::Status FrameReader::reject(WireStatus status,
                                        std::string message) {
  rejected_ = true;
  reject_status_ = status;
  reject_message_ = std::move(message);
  return Status::kRejected;
}

FrameReader::Status FrameReader::next(Frame& frame) {
  if (rejected_) return Status::kRejected;
  if (large_) {
    if (large_filled_ < large_payload_.size()) return Status::kNeedMore;
    large_ = false;
    if (!payload_checksum_ok(large_header_, large_payload_))
      return reject(WireStatus::kMalformed, "payload checksum mismatch");
    frame.header = large_header_;
    frame.payload = large_payload_;
    return Status::kFrame;
  }
  // The previous large frame has been consumed; do not hold its memory.
  if (!large_payload_.empty()) std::string().swap(large_payload_);

  const std::size_t buffered = end_ - begin_;
  if (buffered < kFrameHeaderBytes) return Status::kNeedMore;
  const char* at = buffer_.get() + begin_;
  const HeaderResult head = decode_frame_header(
      std::string_view(at, kFrameHeaderBytes), limits_);
  if (!head.ok()) return reject(head.status, head.error);
  const std::size_t payload_bytes = head.header.payload_bytes;
  const std::size_t total = kFrameHeaderBytes + payload_bytes;
  if (buffered >= total) {
    const std::string_view payload(at + kFrameHeaderBytes, payload_bytes);
    begin_ += total;
    if (!payload_checksum_ok(head.header, payload))
      return reject(WireStatus::kMalformed, "payload checksum mismatch");
    frame.header = head.header;
    frame.payload = payload;
    return Status::kFrame;
  }
  if (total <= kBufferBytes) return Status::kNeedMore;
  // Too large for the buffer, and the header is validated: allocate
  // exactly payload_len and move what is already buffered into it.
  large_ = true;
  large_header_ = head.header;
  large_payload_.resize(payload_bytes);
  large_filled_ = buffered - kFrameHeaderBytes;
  std::memcpy(large_payload_.data(), at + kFrameHeaderBytes, large_filled_);
  begin_ = end_ = 0;
  return Status::kNeedMore;
}

std::span<char> FrameReader::space() {
  if (large_)
    return {large_payload_.data() + large_filled_,
            large_payload_.size() - large_filled_};
  if (begin_ > 0) {
    // Only a partial frame is left (next() drains whole ones), so this
    // moves less than one frame.
    std::memmove(buffer_.get(), buffer_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  return {buffer_.get() + end_, kBufferBytes - end_};
}

void FrameReader::commit(std::size_t n) {
  if (large_)
    large_filled_ += n;
  else
    end_ += n;
}

std::string FrameReader::take_payload(const Frame& frame) {
  if (!large_payload_.empty() && frame.payload.data() == large_payload_.data())
    return std::move(large_payload_);
  return std::string(frame.payload);
}

void FrameReader::reset() {
  begin_ = end_ = 0;
  large_ = false;
  std::string().swap(large_payload_);
  large_filled_ = 0;
  rejected_ = false;
  reject_status_ = WireStatus::kMalformed;
  reject_message_.clear();
}

// --- FrameStream -----------------------------------------------------------

FrameStream::FrameStream(const WireLimits& limits, int fd)
    : fd_(fd), reader_(limits) {}

void FrameStream::reset(int fd) {
  fd_ = fd;
  reader_.reset();
  std::string().swap(out_);
}

FrameStream::ReadStatus FrameStream::read(Frame& frame, int timeout_ms,
                                          const std::atomic<bool>* stopping,
                                          int idle_ms) {
  bool idle_wait = idle_ms >= 0 && reader_.at_boundary();
  bool have_deadline = false;
  Clock::time_point deadline;
  for (;;) {
    switch (reader_.next(frame)) {
      case FrameReader::Status::kFrame:
        return ReadStatus::kFrame;
      case FrameReader::Status::kRejected:
        return ReadStatus::kRejected;
      case FrameReader::Status::kNeedMore:
        break;
    }
    // No complete frame is left buffered: whatever the peer is owed goes
    // out before more input is taken. So replies to the frames one recv
    // brought share one send, and the queue never holds more than the
    // replies to one buffer's worth of requests.
    if (!out_.empty() && !flush(timeout_ms)) return ReadStatus::kError;
    const std::span<char> space = reader_.space();
    const ssize_t n = ::recv(fd_, space.data(), space.size(), MSG_DONTWAIT);
    if (n > 0) {
      const bool was_boundary = reader_.at_boundary();
      const bool had_header = reader_.header_buffered();
      reader_.commit(static_cast<std::size_t>(n));
      if (was_boundary || had_header != reader_.header_buffered()) {
        // A frame began, or its header completed: the next phase gets its
        // own deadline, so time spent idle is not charged to the frame.
        idle_wait = false;
        have_deadline = false;
      }
      continue;
    }
    if (n == 0)
      return reader_.at_boundary() ? ReadStatus::kClosed : ReadStatus::kError;
    if (errno == EINTR) continue;
    if (!would_block(errno)) return ReadStatus::kError;

    if (stopping != nullptr && reader_.at_boundary() &&
        stopping->load(std::memory_order_relaxed))
      return ReadStatus::kStopped;
    if (!have_deadline) {
      deadline = Clock::now() +
                 std::chrono::milliseconds(idle_wait ? idle_ms : timeout_ms);
      have_deadline = true;
    }
    const int slice = next_slice_ms(deadline);
    if (slice == 0) return idle_wait ? ReadStatus::kIdle : ReadStatus::kTimeout;
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, slice) < 0 && errno != EINTR) return ReadStatus::kError;
  }
}

void FrameStream::append(FrameType type, std::string_view payload) {
  append_frame(out_, type, payload);
}

bool FrameStream::flush(int timeout_ms) {
  std::size_t sent = 0;
  bool ok = true;
  bool have_deadline = false;
  Clock::time_point deadline;
  while (sent < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + sent, out_.size() - sent,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || !would_block(errno)) {
      ok = false;
      break;
    }
    if (!have_deadline) {
      deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
      have_deadline = true;
    }
    const int slice = next_slice_ms(deadline);
    if (slice == 0) {
      ok = false;
      break;
    }
    pollfd pfd{fd_, POLLOUT, 0};
    if (::poll(&pfd, 1, slice) < 0 && errno != EINTR) {
      ok = false;
      break;
    }
  }
  if (out_.capacity() > kKeepOutputBytes)
    std::string().swap(out_);
  else
    out_.clear();
  return ok;
}

bool FrameStream::write(FrameType type, std::string_view payload,
                        int timeout_ms) {
  append(type, payload);
  return flush(timeout_ms);
}

}  // namespace fpss::net
