#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/frame_io.h"
#include "service/replication.h"

namespace fpss::net {

RouteServer::RouteServer(Backend& backend, ServerConfig config)
    : backend_(backend), config_(std::move(config)) {
  start();
}

RouteServer::RouteServer(service::RouteService& service, ServerConfig config)
    : owned_(std::make_unique<ServiceBackend>(service)),
      backend_(*owned_),
      config_(std::move(config)) {
  start();
}

void RouteServer::start() {
  if (config_.workers == 0) config_.workers = 1;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    error_ = "bad listen address: " + config_.host;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    error_ = "bind " + config_.host + ":" + std::to_string(config_.port) +
             ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  if (::listen(listen_fd_, 64) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  workers_.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
  acceptor_ = std::thread([this] { accept_loop(); });
}

RouteServer::~RouteServer() { stop(); }

void RouteServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    // Unblocks the acceptor's accept(2); new connections are refused from
    // here on while workers serve out what they already hold.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // The stop flag was written without the queue mutex; take and drop the
    // lock before notifying so a worker that just evaluated its wait
    // condition as "keep sleeping" cannot block *after* this notify and
    // miss it (the classic lost wakeup — stop() would hang in join below).
    util::MutexLock lock(queue_mutex_);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Connections accepted but never picked up by a worker.
  util::MutexLock lock(queue_mutex_);
  for (const int fd : pending_) ::close(fd);
  pending_.clear();
}

RouteServer::Stats RouteServer::stats() const {
  Stats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rejected_frames = rejected_frames_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  util::MutexLock lock(peers_mutex_);
  s.peers.reserve(peers_.size());
  for (const auto& [peer, tally] : peers_) {
    PeerCounters counters;
    counters.peer = peer;
    counters.connections = tally.connections.load(std::memory_order_relaxed);
    counters.queries = tally.queries.load(std::memory_order_relaxed);
    counters.batches = tally.batches.load(std::memory_order_relaxed);
    counters.rejected_frames =
        tally.rejected_frames.load(std::memory_order_relaxed);
    s.peers.push_back(std::move(counters));
  }
  return s;
}

RouteServer::PeerTally& RouteServer::peer_tally(const std::string& peer) {
  const auto found = peers_.find(peer);
  if (found != peers_.end()) return found->second;
  if (peers_.size() >= kMaxPeers) return peers_["(other)"];
  return peers_[peer];
}

void RouteServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener shut down (or unrecoverable)
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    {
      util::MutexLock lock(queue_mutex_);
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void RouteServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      util::MutexLock lock(queue_mutex_);
      while (pending_.empty() && !stopping_.load(std::memory_order_relaxed))
        queue_cv_.wait(lock);
      if (pending_.empty()) return;  // stopping, nothing left to serve
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
  }
}

void RouteServer::serve_connection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // The accounting key: the peer's address. Ports are ephemeral, so the
  // per-peer table aggregates by host — reconnects accumulate.
  std::string peer = "(other)";
  sockaddr_in remote{};
  socklen_t remote_len = sizeof(remote);
  char addr[INET_ADDRSTRLEN];
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&remote), &remote_len) ==
          0 &&
      remote.sin_family == AF_INET &&
      ::inet_ntop(AF_INET, &remote.sin_addr, addr, sizeof(addr)) != nullptr) {
    peer = addr;
  }
  // Resolved once: map nodes are never erased, so the reference stays
  // valid for the connection's lifetime, and its counters are atomics.
  PeerTally* tally = nullptr;
  {
    util::MutexLock lock(peers_mutex_);
    tally = &peer_tally(peer);
  }
  tally->connections.fetch_add(1, std::memory_order_relaxed);
  FrameStream stream(config_.limits, fd);
  while (serve_frame(stream, *tally)) {
  }
  // Replies still queued when the loop ends (EOF right after a pipelined
  // burst, or shutdown) are owed to the peer.
  stream.flush(config_.read_timeout_ms);
  ::close(fd);
}

bool RouteServer::send_error(FrameStream& stream, PeerTally& tally,
                             WireStatus code, const std::string& message) {
  rejected_frames_.fetch_add(1, std::memory_order_relaxed);
  tally.rejected_frames.fetch_add(1, std::memory_order_relaxed);
  // Behind every reply already queued: the peer sees its answers in order,
  // then the rejection, then the close.
  stream.write(FrameType::kError, encode_error({code, message}),
               config_.read_timeout_ms);
  return false;  // protocol errors always close the connection
}

bool RouteServer::serve_frame(FrameStream& stream, PeerTally& tally) {
  // 1. Read: the stream validates the header before the payload costs
  //    anything beyond the fixed receive buffer, then the checksum.
  Frame frame;
  switch (stream.read(frame, config_.read_timeout_ms, &stopping_)) {
    case FrameStream::ReadStatus::kFrame:
      break;
    case FrameStream::ReadStatus::kRejected:
      return send_error(stream, tally, stream.reader().rejection_status(),
                        stream.reader().rejection());
    case FrameStream::ReadStatus::kTimeout:
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      return false;
    default:  // EOF, shutdown while idle between frames, socket error
      return false;
  }
  const std::string_view payload = frame.payload;

  // 2. Replies are queued and go out in one send once the stream runs out
  //    of buffered requests, so pipelined query replies coalesce. Every
  //    other frame can block or stream, so what is already owed goes out
  //    before it is dispatched.
  const FrameType type = frame.header.type;
  if (type != FrameType::kQueryBatch &&
      !stream.flush(config_.read_timeout_ms))
    return false;

  // 3. Dispatch. From here the frame is served to completion even if a
  //    shutdown starts concurrently — that is the drain guarantee.
  switch (type) {
    case FrameType::kHello: {
      Hello hello;
      if (!decode_hello(payload, hello))
        return send_error(stream, tally, WireStatus::kMalformed,
                          "bad hello payload");
      if (hello.wire_version != kWireVersion)
        return send_error(stream, tally, WireStatus::kUnsupportedVersion,
                          "client wire version " +
                              std::to_string(hello.wire_version) +
                              " unsupported");
      HelloAck ack;
      ack.wire_version = kWireVersion;
      ack.node_count = backend_.node_count();
      ack.snapshot_version = backend_.version();
      ack.max_batch = config_.limits.max_batch;
      ack.hop_count = backend_.hop_count();
      stream.append(FrameType::kHelloAck, encode_hello_ack(ack));
      break;
    }
    case FrameType::kQueryBatch: {
      const RequestsResult batch =
          decode_requests(payload, config_.limits.max_batch);
      if (!batch.ok())
        return send_error(stream, tally, batch.status, batch.error);
      const std::vector<service::Reply> replies = backend_.query(
          std::span<const service::Request>(batch.requests));
      batches_.fetch_add(1, std::memory_order_relaxed);
      tally.queries.fetch_add(batch.requests.size(),
                              std::memory_order_relaxed);
      tally.batches.fetch_add(1, std::memory_order_relaxed);
      stream.append(FrameType::kReplyBatch, encode_replies(replies));
      break;
    }
    case FrameType::kCountersFetch: {
      ReplicaCounters replica;
      const bool is_replica = backend_.replica_counters(replica);
      stream.append(FrameType::kCountersReply,
                    encode_counters(backend_.counters(), stats(),
                                    is_replica ? &replica : nullptr));
      break;
    }
    case FrameType::kDeltaSubmit: {
      if (!config_.allow_deltas)
        return send_error(stream, tally, WireStatus::kBadFrameType,
                          "delta submission disabled on this server");
      const DeltasResult deltas =
          decode_deltas(payload, config_.limits.max_batch);
      if (!deltas.ok())
        return send_error(stream, tally, deltas.status, deltas.error);
      const Backend::SubmitOutcome outcome = backend_.submit(deltas.deltas);
      switch (outcome.status) {
        case Backend::SubmitOutcome::Status::kOk:
          break;
        case Backend::SubmitOutcome::Status::kReadOnly:
          return send_error(stream, tally, WireStatus::kBadFrameType,
                            "delta submission disabled on this server");
        case Backend::SubmitOutcome::Status::kOverloaded:
          return send_error(stream, tally, WireStatus::kOverloaded,
                            "forwarding queue full; retry later");
        case Backend::SubmitOutcome::Status::kUnavailable:
          return send_error(stream, tally, WireStatus::kUpstreamDown,
                            "no upstream reachable; write not applied");
      }
      DeltaAck ack;
      ack.accepted = outcome.accepted;
      ack.publish_count = outcome.publish_count;
      stream.append(FrameType::kDeltaAck, encode_delta_ack(ack));
      break;
    }
    case FrameType::kDrain: {
      stream.append(FrameType::kDrainReply, encode_u64(backend_.drain()));
      break;
    }
    case FrameType::kSnapshotFetch: {
      const ShardVersionsResult fetch = decode_shard_versions(payload);
      if (!fetch.ok())
        return send_error(stream, tally, fetch.status, fetch.error);
      frames_.fetch_add(1, std::memory_order_relaxed);
      return serve_snapshot_fetch(stream, tally, fetch.versions);
    }
    case FrameType::kSubscribe: {
      std::uint64_t since = 0;
      if (!decode_u64(payload, since))
        return send_error(stream, tally, WireStatus::kMalformed,
                          "bad subscribe payload");
      frames_.fetch_add(1, std::memory_order_relaxed);
      return serve_subscription(stream, since);
    }
    default:
      // Server-to-client types (HelloAck, ReplyBatch, ...) and kError are
      // never valid requests.
      return send_error(stream, tally, WireStatus::kBadFrameType,
                        "frame type not valid as a request");
  }

  frames_.fetch_add(1, std::memory_order_relaxed);
  // Stop taking new frames once shutdown began; the reply queued above
  // completes the in-flight exchange (serve_connection flushes it).
  return !stopping_.load(std::memory_order_relaxed);
}

bool RouteServer::serve_snapshot_fetch(
    FrameStream& stream, PeerTally& tally,
    const std::vector<std::uint64_t>& known) {
  // Keep the shared_ptr for the whole transfer: a replica backend may swap
  // its store out concurrently, and this reference is what keeps the old
  // one alive until the stream finishes.
  const std::shared_ptr<const service::ShardedSnapshotStore> store =
      backend_.store();
  if (store == nullptr)
    return send_error(stream, tally, WireStatus::kBadFrameType,
                      "snapshot fetch unsupported by this backend");
  const service::ShardedSnapshotStore::ExportCut cut = store->export_cut();
  if (cut.newest == nullptr)
    return send_error(stream, tally, WireStatus::kShuttingDown,
                      "no snapshot published yet");
  const std::size_t shard_count = cut.shard_versions.size();
  // The dirty set: shards whose slot version moved since the replica's
  // last sync. A version vector of the wrong length (including the empty
  // one a bootstrap sends) cannot be compared per slot, so everything is
  // dirty.
  const bool full = known.size() != shard_count;
  std::vector<std::uint32_t> dirty;
  for (std::size_t s = 0; s < shard_count; ++s)
    if (full || known[s] != cut.shard_versions[s])
      dirty.push_back(static_cast<std::uint32_t>(s));

  for (const std::uint32_t s : dirty) {
    const std::vector<std::string> chunks = service::ReplicationCodec::
        encode_shard(*cut.newest, s, store->shard_size(),
                     static_cast<std::uint32_t>(shard_count),
                     cut.shard_versions[s]);
    for (const std::string& chunk : chunks) {
      if (chunk.size() > config_.limits.max_payload_bytes)
        return send_error(stream, tally, WireStatus::kOversized,
                          "shard chunk exceeds the frame payload limit");
      if (!stream.write(FrameType::kSnapshotChunk, chunk,
                        config_.read_timeout_ms))
        return false;
      frames_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const std::string final_chunk = service::ReplicationCodec::encode_final(
      *cut.newest, cut.shard_versions, dirty);
  if (final_chunk.size() > config_.limits.max_payload_bytes)
    return send_error(stream, tally, WireStatus::kOversized,
                      "final chunk exceeds the frame payload limit");
  if (!stream.write(FrameType::kSnapshotChunk, final_chunk,
                    config_.read_timeout_ms))
    return false;
  frames_.fetch_add(1, std::memory_order_relaxed);
  return !stopping_.load(std::memory_order_relaxed);
}

bool RouteServer::serve_subscription(FrameStream& stream,
                                     std::uint64_t since) {
  // The connection is now a push channel: this worker is pinned to it
  // until the peer closes, a write fails, or the server stops. The notify
  // "queue" is depth one by construction — each iteration reads the
  // backend's *current* publish count and version, so a subscriber slower
  // than the publish rate receives one notify describing the latest state
  // with `coalesced` counting everything it skipped, never a backlog.
  std::uint64_t last = since;
  bool first = true;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Liveness check: a subscribed peer sends nothing, so any byte — one
    // already buffered behind the kSubscribe frame, or a readable socket —
    // is either EOF (normal teardown) or a protocol violation; both end
    // the subscription.
    if (!stream.reader().at_boundary()) return false;
    pollfd pfd{stream.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 0) > 0) return false;
    // The first notify is the subscription ack: sent immediately, telling
    // a late or re-connecting subscriber how far behind `since` it is.
    const std::uint64_t count =
        first ? backend_.publish_count()
              : backend_.wait_for_publish_beyond(last, 100);
    if (!first && count <= last) continue;  // slice elapsed; re-check peer
    PublishNotify notify;
    notify.snapshot_version = backend_.version();
    notify.published_at_ns = backend_.published_at_ns();
    notify.publish_count = count;
    notify.coalesced = count > last + 1 ? count - last - 1 : 0;
    if (!stream.write(FrameType::kPublishNotify,
                      encode_publish_notify(notify), config_.read_timeout_ms))
      return false;
    frames_.fetch_add(1, std::memory_order_relaxed);
    last = count;
    first = false;
  }
  return false;
}

}  // namespace fpss::net
