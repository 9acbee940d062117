// Fuzz target: every fpss-wire v1 decoder that faces untrusted socket
// bytes. The first input byte selects the decoder; the rest is the
// payload. The contract under test is the server/client robustness
// promise: any byte string is either decoded or rejected with a typed
// error — never a crash, never an allocation driven by an unvalidated
// length (ASan enforces the memory half when the harness is built with
// sanitizers).
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string_view>

#include "fuzz_common.h"
#include "net/frame_io.h"
#include "net/wire.h"

using namespace fpss::net;

namespace {

constexpr std::uint8_t kSelectors = 13;

/// Selector 12: the input replayed as a byte stream through the buffered
/// FrameReader. Layout: k = first byte % 16, then k split lengths (each
/// byte + 1), used cyclically as the sizes of successive deliveries, then
/// the stream itself. Every frame the reader yields must carry a header
/// that validates and a payload that matches it; the only writable space
/// it ever offers is the fixed buffer or one validated payload.
void replay_stream(std::string_view input) {
  if (input.empty()) return;
  const std::size_t k = std::min<std::size_t>(
      static_cast<std::uint8_t>(input[0]) % 16, input.size() - 1);
  const std::string_view splits = input.substr(1, k);
  const std::string_view stream = input.substr(1 + k);
  // A tight payload limit makes the exact-allocation path (frames larger
  // than the buffer) reachable from fuzzer-sized inputs.
  WireLimits limits;
  limits.max_payload_bytes = 4 * FrameReader::kBufferBytes;
  const std::size_t max_space =
      std::max<std::size_t>(FrameReader::kBufferBytes, limits.max_payload_bytes);
  FrameReader reader(limits);
  std::size_t fed = 0;
  std::size_t delivery = 0;
  for (;;) {
    Frame frame;
    const FrameReader::Status status = reader.next(frame);
    if (status == FrameReader::Status::kRejected) return;
    if (status == FrameReader::Status::kFrame) {
      if (frame.payload.size() != frame.header.payload_bytes ||
          frame.header.payload_bytes > limits.max_payload_bytes ||
          !payload_checksum_ok(frame.header, frame.payload))
        std::abort();
      continue;
    }
    if (fed == stream.size()) return;
    const std::span<char> space = reader.space();
    if (space.empty() || space.size() > max_space) std::abort();
    std::size_t want = stream.size() - fed;
    if (!splits.empty())
      want = static_cast<std::size_t>(
                 static_cast<std::uint8_t>(splits[delivery % splits.size()])) +
             1;
    ++delivery;
    const std::size_t n = std::min({want, space.size(), stream.size() - fed});
    std::memcpy(space.data(), stream.data() + fed, n);
    reader.commit(n);
    fed += n;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t selector = data[0] % kSelectors;
  const std::string_view payload(reinterpret_cast<const char*>(data + 1),
                                 size - 1);
  const WireLimits limits;  // the defaults every server/client starts from
  switch (selector) {
    case 0: {
      // The full frame gate: header decode (exactly 20 bytes) and, when it
      // passes, the checksum check against the remaining bytes — the same
      // two steps serve_frame takes before dispatch.
      if (payload.size() < kFrameHeaderBytes) break;
      const HeaderResult head =
          decode_frame_header(payload.substr(0, kFrameHeaderBytes), limits);
      if (head.ok())
        payload_checksum_ok(head.header, payload.substr(kFrameHeaderBytes));
      break;
    }
    case 1: {
      Hello out;
      decode_hello(payload, out);
      break;
    }
    case 2: {
      HelloAck out;
      decode_hello_ack(payload, out);
      break;
    }
    case 3: {
      ErrorFrame out;
      decode_error(payload, out);
      break;
    }
    case 4: {
      std::uint64_t out = 0;
      decode_u64(payload, out);
      break;
    }
    case 5: {
      DeltaAck out;
      decode_delta_ack(payload, out);
      break;
    }
    case 6:
      decode_requests(payload, limits.max_batch);
      break;
    case 7:
      decode_replies(payload, limits);
      break;
    case 8:
      decode_deltas(payload, limits.max_batch);
      break;
    case 9:
      decode_shard_versions(payload);
      break;
    case 10: {
      PublishNotify out;
      decode_publish_notify(payload, out);
      break;
    }
    case 11: {
      CountersFrame out;
      decode_counters(payload, out);
      break;
    }
    case 12:
      replay_stream(payload);
      break;
    default:
      break;
  }
  return 0;
}
