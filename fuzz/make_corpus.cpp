// Seed-corpus generator: writes one valid exemplar per fuzz-target input
// shape into <out_dir>/{wire,snapshot,replication}/. Seeds are *valid*
// encodings produced by the repo's own encoders — the fuzzer's mutations
// then explore the boundary around validity, which is where parser bugs
// live. Re-run after a wire or snapshot format change and commit the
// refreshed corpus.
//
//   make_corpus <corpus_dir>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "net/frame_io.h"
#include "net/wire.h"
#include "service/replication.h"
#include "service/service.h"
#include "service/snapshot.h"

namespace {

bool write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

/// A wire seed: the harness' selector byte followed by the payload.
std::string wire_seed(std::uint8_t selector, std::string_view payload) {
  std::string seed(1, static_cast<char>(selector));
  seed.append(payload);
  return seed;
}

/// The replication harness' framing: 2-byte little-endian length prefixes.
/// Chunks larger than 64 KiB are split; the assembler does not care where
/// feed() boundaries fall inside its own records... which is exactly what
/// the harness fuzzes.
std::string chunk_stream(const std::vector<std::string>& chunks) {
  std::string stream;
  for (const std::string& chunk : chunks) {
    std::size_t pos = 0;
    while (pos < chunk.size() || (chunk.empty() && pos == 0)) {
      const std::size_t len = std::min<std::size_t>(chunk.size() - pos, 0xffff);
      stream.push_back(static_cast<char>(len & 0xff));
      stream.push_back(static_cast<char>((len >> 8) & 0xff));
      stream.append(chunk, pos, len);
      pos += len;
      if (chunk.empty()) break;
    }
  }
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <corpus_dir>\n");
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path root = argv[1];
  fs::create_directories(root / "wire");
  fs::create_directories(root / "snapshot");
  fs::create_directories(root / "replication");

  using namespace fpss;

  // A small real service: 8-node ring with chords, 4 shards — big enough
  // that the snapshot and replication seeds have multi-shard structure.
  graph::Graph g(8);
  for (NodeId v = 0; v < 8; ++v) {
    g.set_cost(v, Cost{static_cast<Cost::rep>(1 + v % 3)});
    g.add_edge(v, (v + 1) % 8);
  }
  g.add_edge(0, 4);
  g.add_edge(2, 6);
  service::ServiceConfig config;
  config.shards = 4;
  service::RouteService svc(g, config);
  const auto snap = svc.snapshot();

  bool ok = true;

  // --- wire seeds: one valid payload per selector ---------------------------
  {
    using namespace fpss::net;
    Hello hello;
    hello.max_batch = 64;
    HelloAck ack;
    ack.node_count = 8;
    ack.snapshot_version = 1;
    ack.max_batch = 4096;
    ErrorFrame err{WireStatus::kMalformed, "exemplar"};
    DeltaAck dack;
    dack.accepted = 2;
    dack.publish_count = 3;
    std::vector<service::Request> requests;
    {
      service::Request r;
      r.kind = service::RequestKind::kPrice;
      r.k = 1;
      r.i = 0;
      r.j = 5;
      requests.push_back(r);
      r.kind = service::RequestKind::kPath;
      requests.push_back(r);
    }
    const std::vector<service::Reply> replies = svc.query(requests);
    const std::vector<service::RouteService::Delta> deltas = {
        service::RouteService::Delta::cost_change(2, Cost{7}),
        service::RouteService::Delta::add_link(1, 6),
        service::RouteService::Delta::republish(),
    };
    const std::vector<std::uint64_t> versions = {1, 1, 1, 1};
    PublishNotify notify;
    notify.snapshot_version = 1;
    notify.publish_count = 1;
    const std::string counters =
        encode_counters(svc.counters(), ServerCounters{});

    const std::string payloads[12] = {
        encode_frame(FrameType::kHello, encode_hello(hello)),
        encode_hello(hello),
        encode_hello_ack(ack),
        encode_error(err),
        encode_u64(42),
        encode_delta_ack(dack),
        encode_requests(requests),
        encode_replies(replies),
        encode_deltas(deltas),
        encode_shard_versions(versions),
        encode_publish_notify(notify),
        counters,
    };
    static const char* names[12] = {
        "frame",    "hello",  "hello_ack", "error",          "u64",
        "delta_ack", "requests", "replies",  "deltas",         "shard_versions",
        "publish_notify", "counters"};
    for (std::uint8_t s = 0; s < 12; ++s)
      ok = write_file(root / "wire" / names[s],
                      wire_seed(s, payloads[s])) &&
           ok;

    // Selector 12 replays a byte stream through the buffered FrameReader:
    // a split-length prefix (count, then lengths - 1), then frames. One
    // seed of small pipelined frames delivered 1, 7 and 20 bytes at a
    // time, one whose single frame outgrows the 16 KiB receive buffer.
    std::string small_stream("\x03\x00\x06\x13", 4);
    append_frame(small_stream, FrameType::kHello, encode_hello(hello));
    append_frame(small_stream, FrameType::kQueryBatch,
                 encode_requests(requests));
    append_frame(small_stream, FrameType::kReplyBatch,
                 encode_replies(replies));
    append_frame(small_stream, FrameType::kDrain, "");
    ok = write_file(root / "wire" / "stream", wire_seed(12, small_stream)) &&
         ok;
    std::string large_stream("\x01\xff", 2);
    append_frame(large_stream, FrameType::kSnapshotChunk,
                 std::string(FrameReader::kBufferBytes + 64, 's'));
    ok = write_file(root / "wire" / "stream_large",
                    wire_seed(12, large_stream)) &&
         ok;
  }

  // --- snapshot seed: a real fpss-snap v4 image -----------------------------
  {
    const fs::path path = root / "snapshot" / "valid.fpss-snap";
    const auto saved = service::save_snapshot(*snap, path.string());
    ok = saved.ok() && ok;
  }

  // --- replication seed: a full bootstrap chunk stream ----------------------
  {
    const auto cut = svc.store().export_cut();
    std::vector<std::string> chunks;
    std::vector<std::uint32_t> sent;
    for (std::size_t s = 0; s < svc.store().shard_count(); ++s) {
      sent.push_back(static_cast<std::uint32_t>(s));
      for (std::string& chunk : service::ReplicationCodec::encode_shard(
               *cut.newest, s, svc.store().shard_size(),
               static_cast<std::uint32_t>(svc.store().shard_count()),
               cut.shard_versions[s]))
        chunks.push_back(std::move(chunk));
    }
    chunks.push_back(service::ReplicationCodec::encode_final(
        *cut.newest, cut.shard_versions, sent));
    ok = write_file(root / "replication" / "bootstrap",
                    chunk_stream(chunks)) &&
         ok;
  }

  if (!ok) {
    std::fprintf(stderr, "make_corpus: some seeds failed to write\n");
    return 1;
  }
  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
