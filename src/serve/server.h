// `acstab serve`: a crash-only, overload-safe campaign service wrapped
// around the fault-tolerant farm orchestrator.
//
// One long-lived daemon accepts campaign plans as JSON-lines requests
// (serve/protocol.h) over a unix socket or stdio, executes each admitted
// request through exec_campaign() — work-stealing leases, worker
// processes, retries, quarantine, crash-safe shard streams — and streams
// incremental per-point records plus the final merged report back to the
// client. Reports are byte-identical to `acstab farm exec` for the same
// plan.
//
// Robustness surface (the point of this subsystem):
//   * malformed / over-deep / oversized frames -> one structured "error"
//     reply; the connection stays usable and the server never crashes;
//   * bounded admission: at most max_concurrent requests run, at most
//     queue_depth wait; beyond that the client gets an explicit
//     "overloaded" frame instead of unbounded latency;
//   * per-request deadline_s and mid-flight "cancel" frames stop exactly
//     that request's workers (lease state checkpoints; the request dir
//     remains resumable with `farm exec --resume`);
//   * a worker crash or stall inside a request is absorbed by the
//     orchestrator's retry/quarantine machinery — the server never dies
//     with a request;
//   * a client disconnect (or a slow reader overflowing its bounded
//     output buffer) cancels and reaps only that client's requests;
//   * SIGTERM/SIGINT (via serve_options::shutdown) -> graceful drain:
//     stop admitting, let in-flight requests finish — or checkpoint them
//     after drain_grace_s — then return with drained=true (exit 0).
//
// Each request runs in its own directory root_dir/req-<n>/ (plan.json,
// work/, report.json), so nothing any request does can corrupt another.
#ifndef ACSTAB_SERVE_SERVER_H
#define ACSTAB_SERVE_SERVER_H

#include <atomic>
#include <cstddef>
#include <string>

namespace acstab::serve {

struct serve_options {
    std::string socket_path; ///< unix socket to listen on (exclusive with stdio)
    bool stdio = false;      ///< single-client mode on stdin/stdout
    std::size_t max_concurrent = 2;  ///< requests executing at once
    std::size_t queue_depth = 4;     ///< admitted-but-waiting bound
    std::size_t max_frame_bytes = 1u << 20; ///< request line length cap
    /// Per-connection output buffer cap; a client that stops reading past
    /// this is dropped (its requests cancel) instead of growing the
    /// server without bound.
    std::size_t output_buffer_limit = 8u << 20;
    std::size_t workers = 2;       ///< orchestrator workers per request
    double point_timeout_s = 300.0;
    std::size_t max_attempts = 3;
    double backoff_s = 0.25;
    std::string root_dir;  ///< per-request dirs live here (required)
    std::string tool_path; ///< worker binary (empty = /proc/self/exe)
    double drain_grace_s = 10.0; ///< drain budget before checkpointing
    /// Shutdown flag: 0 = run, 1 = drain (finish in-flight), >=2 =
    /// checkpoint in-flight now. Monotonic; the server never resets it.
    /// Atomic because another thread (a test, or the CLI's signal
    /// handler) writes it while the server thread reads it.
    const std::atomic<int>* shutdown = nullptr;
    bool verbose = false; ///< request lifecycle lines on stderr
};

// Only lock-free atomics are async-signal-safe, and the CLI writes the
// shutdown flag from a signal handler.
static_assert(std::atomic<int>::is_always_lock_free);

struct serve_summary {
    std::size_t accepted = 0;  ///< submits admitted (ran or queued)
    std::size_t completed = 0; ///< report frames delivered or stored
    std::size_t cancelled = 0; ///< client cancel / disconnect / deadline
    std::size_t failed = 0;    ///< requests that errored out
    std::size_t shed = 0;      ///< submits refused with "overloaded"
    std::size_t protocol_errors = 0; ///< malformed/oversized frames answered
    bool drained = false; ///< exited via the graceful shutdown path
};

/// Run the serve event loop until shutdown (or stdin EOF in stdio mode).
/// Throws analysis_error on setup errors (bad options, socket bind
/// failure); everything after the loop starts is absorbed per-connection
/// or per-request. All request threads and worker processes are joined/
/// reaped before returning.
serve_summary run_server(const serve_options& opt);

} // namespace acstab::serve

#endif // ACSTAB_SERVE_SERVER_H
