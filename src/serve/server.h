/**
 * @file
 * Standalone serving front-end: a Unix-domain stream-socket server
 * exposing one InferenceService over a line-oriented text protocol.
 *
 * Protocol (one request per line, one response line per request):
 *
 *     predict <sample-index> <seed>
 *         -> ok <predicted> <energy_aj> <latency_us> <batch_size>
 *         -> err <reason>            (bad index, full queue, shutdown)
 *     stats
 *         -> stats <accepted> <served> <rejected> <batches> <largest>
 *     quit
 *         -> (connection closed)
 *
 * A line longer than kMaxLineBytes (newline excluded) is answered with
 * `err line too long` and the connection is closed.
 *
 * Samples are addressed by index into a dataset the server holds
 * read-only; the client supplies the noise seed, so a response is a
 * pure function of (mapped model, sample index, seed) — the same
 * determinism contract as the in-process API (docs/SERVING.md). Used
 * by the serve_server / loadgen bench pair and the socket round-trip
 * test.
 */

#ifndef SUPERBNN_SERVE_SERVER_H
#define SUPERBNN_SERVE_SERVER_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "serve/inference_service.h"

namespace superbnn::serve {

/**
 * Accepts any number of concurrent client connections, each handled by
 * its own thread; all connections feed the one shared
 * InferenceService, whose dispatcher coalesces them into megabatches.
 */
class SocketServer
{
  public:
    /// Longest request line accepted, newline excluded.
    static constexpr std::size_t kMaxLineBytes = 4096;

    /**
     * Binds and listens on @p socket_path (an existing stale socket
     * file is removed first) and starts the accept loop.
     *
     * @throws std::runtime_error when the socket cannot be bound
     */
    SocketServer(InferenceService &service, const data::Dataset &samples,
                 std::string socket_path);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /**
     * Stop accepting, hang up every open connection, join all handler
     * threads, and unlink the socket file. Idempotent. Requests
     * already admitted to the service are unaffected (the service owns
     * drain semantics, not the transport).
     */
    void stop();

    const std::string &path() const { return socketPath; }

    /**
     * Currently open client connections. A connection leaves this
     * count the moment its handler deregisters it (before closing the
     * fd), so after clients hang up the count returns to 0 — the
     * connection-churn regression tests assert exactly that (the
     * registry used to grow without bound and stop() would shutdown()
     * long-closed, possibly kernel-reused descriptors).
     */
    std::size_t liveConnections() const;

  private:
    void acceptLoop();
    void handleConnection(std::uint64_t id, int fd);
    /**
     * A finishing handler's self-retirement: deregister the connection
     * (so stop() no longer targets its fd), THEN close the fd, and
     * move the handler's own thread to the finished list for reaping
     * (by the accept loop on the next accept, or by stop()).
     */
    void retireConnection(std::uint64_t id, int fd);
    /** One response line for one request line. Empty = close. */
    std::string handleLine(const std::string &line);

    InferenceService &service;
    const data::Dataset &samples;
    const std::string socketPath;

    int listenFd = -1;
    mutable std::mutex mutex_;
    std::condition_variable retired_; ///< signals handler retirement
    bool stopping = false;
    std::uint64_t nextConnId = 1;
    /// LIVE connections only, keyed by connection id: a handler
    /// removes its entry before closing the fd, so stop() never
    /// shutdown()s a closed (possibly kernel-reused) descriptor and
    /// the registry cannot grow without bound on a long-lived server.
    std::map<std::uint64_t, int> connections;
    /// Running handler threads by connection id; on exit each moves
    /// itself to `finished` for joining.
    std::map<std::uint64_t, std::thread> handlers;
    std::vector<std::thread> finished; ///< retired handlers to join
    std::thread acceptor;
};

} // namespace superbnn::serve

#endif // SUPERBNN_SERVE_SERVER_H
