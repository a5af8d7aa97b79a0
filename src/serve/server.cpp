#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.h"
#include "farm/campaign.h"
#include "farm/fault_inject.h"
#include "farm/orchestrator.h"
#include "farm/posix_io.h"
#include "serve/protocol.h"

namespace acstab::serve {

using farm::fault_directive;
using farm::json_value;
using steady_clock = std::chrono::steady_clock;

namespace {

    [[nodiscard]] std::string errno_text()
    {
        return std::strerror(errno);
    }

    /// One admitted submit: its identity, its isolated directory, the
    /// worker thread driving exec_campaign, and the reply frames that
    /// thread has produced but the event loop has not yet shipped.
    struct request_state {
        std::string id;           ///< client-chosen correlation id
        std::size_t conn_serial = 0;
        std::string dir;          ///< root_dir/req-<n>
        json_value plan;          ///< verbatim client plan document
        std::size_t points = 0;
        std::size_t workers = 0;
        bool has_deadline = false;
        double deadline_s = 0.0;
        steady_clock::time_point admitted{}; ///< deadline epoch (incl. queue time)

        std::atomic<bool> cancel{false};   ///< client cancel / disconnect
        std::atomic<bool> done{false};     ///< thread finished; joinable
        /// 1 = report delivered, 2 = cancelled/checkpointed, 3 = failed.
        std::atomic<int> outcome{0};
        std::thread thread;

        std::mutex mu;
        std::vector<std::string> frames; ///< reply frames awaiting the loop
    };

    /// One client. For sockets in_fd == out_fd; stdio splits them.
    struct connection {
        int in_fd = -1;
        int out_fd = -1;
        std::size_t serial = 0; ///< 1-based accept order (fault-injection key)
        bool is_stdio = false;
        bool dead = false;
        /// Input side closed (half-close). The client may still be
        /// reading: pending requests keep running and their frames keep
        /// flowing; the connection is reaped once nothing is owed to it.
        bool in_eof = false;
        std::string inbuf;
        std::string outbuf;
        bool skip_to_newline = false; ///< discarding an oversized frame
        bool no_drain = false;        ///< slow-reader fault: never flush
        std::size_t out_limit = 0;
    };

    void push_frame(request_state& rq, std::string frame, int wake_fd)
    {
        {
            const std::lock_guard<std::mutex> lock(rq.mu);
            rq.frames.push_back(std::move(frame));
        }
        // Wake the poll loop; a full (EAGAIN) pipe already guarantees a
        // pending wakeup, so a failed write is fine.
        const char byte = 1;
        (void)!farm::write_fully(wake_fd, &byte, 1);
    }

    [[nodiscard]] bool write_file(const std::string& path, const std::string& bytes)
    {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        if (f == nullptr)
            return false;
        const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size()
            && std::fflush(f) == 0;
        std::fclose(f);
        return ok;
    }

    /// Request worker thread: plan file -> exec_campaign -> report frame.
    /// Never throws out; every failure becomes a structured error frame.
    void run_request(request_state& rq, const serve_options& opt,
                     const std::atomic<bool>& hard_stop, int wake_fd)
    {
        const auto deadline_hit = [&] {
            return rq.has_deadline
                && steady_clock::now() - rq.admitted
                > std::chrono::microseconds(static_cast<long>(rq.deadline_s * 1e6));
        };
        try {
            const farm::campaign_spec spec = farm::campaign_from_json(rq.plan);
            if (::mkdir(rq.dir.c_str(), 0777) != 0 && errno != EEXIST)
                throw analysis_error("serve: cannot create request dir '" + rq.dir
                                     + "': " + errno_text());
            const std::string plan_path = rq.dir + "/plan.json";
            if (!write_file(plan_path, rq.plan.dump() + "\n"))
                throw analysis_error("serve: cannot write '" + plan_path
                                     + "': " + errno_text());

            farm::exec_options eopt;
            eopt.workers = rq.workers != 0 ? rq.workers : opt.workers;
            eopt.workdir = rq.dir + "/work";
            eopt.out = rq.dir + "/report.json";
            eopt.plan_path = plan_path;
            eopt.point_timeout_s = opt.point_timeout_s;
            eopt.max_attempts = opt.max_attempts;
            eopt.backoff_s = opt.backoff_s;
            eopt.tool_path = opt.tool_path;
            eopt.verbose = false; // stdout may BE the protocol stream
            eopt.cancelled = [&] {
                return rq.cancel.load(std::memory_order_relaxed)
                    || hard_stop.load(std::memory_order_relaxed) || deadline_hit();
            };
            eopt.on_point = [&](std::size_t index, const std::string& record) {
                push_frame(rq, point_frame(rq.id, index, record), wake_fd);
            };

            const farm::exec_summary sum = farm::exec_campaign(spec, eopt);
            if (sum.interrupted) {
                std::string why;
                if (rq.cancel.load())
                    why = "request cancelled";
                else if (deadline_hit())
                    why = "deadline_s exceeded after " + std::to_string(sum.completed)
                        + "/" + std::to_string(sum.total) + " points";
                else
                    why = "server draining; request checkpointed after "
                        + std::to_string(sum.completed) + "/" + std::to_string(sum.total)
                        + " points";
                rq.outcome.store(2);
                push_frame(rq,
                           error_frame(rq.id,
                                       why + " — completed records are safe in '"
                                           + eopt.workdir
                                           + "'; resume with: acstab farm exec "
                                           + plan_path + " --resume --dir "
                                           + eopt.workdir),
                           wake_fd);
            } else {
                // One read of the whole file: a report runs to megabytes,
                // and a character-wise istreambuf_iterator copy of it cost
                // the served request milliseconds.
                std::ifstream in(eopt.out, std::ios::binary | std::ios::ate);
                std::string report(in ? static_cast<std::size_t>(in.tellg()) : 0, '\0');
                if (!in.seekg(0)
                    || !in.read(report.data(), static_cast<std::streamsize>(report.size())))
                    report.clear();
                if (report.empty())
                    throw analysis_error("serve: merged report '" + eopt.out
                                         + "' is unreadable");
                while (!report.empty() && report.back() == '\n')
                    report.pop_back();
                rq.outcome.store(1);
                push_frame(rq,
                           report_frame(rq.id, sum.completed, sum.quarantined.size(),
                                        report),
                           wake_fd);
            }
        } catch (const std::exception& e) {
            rq.outcome.store(3);
            push_frame(rq, error_frame(rq.id, e.what()), wake_fd);
        }
        rq.done.store(true);
        const char byte = 1;
        (void)!farm::write_fully(wake_fd, &byte, 1);
    }

} // namespace

serve_summary run_server(const serve_options& opt)
{
    if (opt.root_dir.empty())
        throw analysis_error("serve: no working root directory (--dir)");
    if (opt.stdio == !opt.socket_path.empty())
        throw analysis_error("serve: pass exactly one of --socket PATH or --stdio");
    if (opt.max_concurrent == 0)
        throw analysis_error("serve: --max-concurrent must be at least 1");
    if (opt.max_frame_bytes < 64)
        throw analysis_error("serve: --max-frame must be at least 64 bytes");

    // A client that vanishes mid-write must surface as EPIPE on its own
    // connection, never as a process-killing SIGPIPE.
    farm::ignore_sigpipe();

    if (::mkdir(opt.root_dir.c_str(), 0777) != 0 && errno != EEXIST)
        throw analysis_error("serve: cannot create root dir '" + opt.root_dir
                             + "': " + errno_text());

    // Serve-level fault injection (client-drop / slow-reader /
    // mid-frame-kill, keyed by connection serial). Worker/orchestrator
    // directives stay in the environment and flow into exec_campaign.
    std::vector<fault_directive> serve_faults;
    for (const fault_directive& d : farm::parse_fault_env()) {
        if (d.k == fault_directive::kind::client_drop
            || d.k == fault_directive::kind::slow_reader
            || d.k == fault_directive::kind::mid_frame_kill)
            serve_faults.push_back(d);
    }
    const auto fire_fault = [&](fault_directive::kind k, const char* name,
                                std::size_t serial) {
        for (const fault_directive& d : serve_faults)
            if (d.k == k && d.arg == serial
                && (d.always || farm::try_fire_marker(opt.root_dir, name, serial)))
                return true;
        return false;
    };

    int wake_pipe[2];
    if (::pipe(wake_pipe) != 0)
        throw analysis_error("serve: pipe: " + errno_text());
    farm::set_cloexec(wake_pipe[0]);
    farm::set_cloexec(wake_pipe[1]);
    (void)farm::set_nonblock(wake_pipe[0]);
    (void)farm::set_nonblock(wake_pipe[1]);

    int listen_fd = -1;
    if (!opt.stdio) {
        listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd < 0) {
            ::close(wake_pipe[0]);
            ::close(wake_pipe[1]);
            throw analysis_error("serve: socket: " + errno_text());
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opt.socket_path.size() >= sizeof addr.sun_path) {
            ::close(listen_fd);
            ::close(wake_pipe[0]);
            ::close(wake_pipe[1]);
            throw analysis_error("serve: socket path '" + opt.socket_path
                                 + "' is too long for a unix socket");
        }
        std::memcpy(addr.sun_path, opt.socket_path.c_str(), opt.socket_path.size() + 1);
        ::unlink(opt.socket_path.c_str()); // stale socket from a dead server
        if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0
            || ::listen(listen_fd, 16) != 0) {
            const std::string why = errno_text();
            ::close(listen_fd);
            ::close(wake_pipe[0]);
            ::close(wake_pipe[1]);
            throw analysis_error("serve: cannot listen on '" + opt.socket_path
                                 + "': " + why);
        }
        farm::set_cloexec(listen_fd);
        (void)farm::set_nonblock(listen_fd);
    }

    serve_summary summary;
    std::vector<std::unique_ptr<connection>> conns;
    std::vector<std::unique_ptr<request_state>> running;
    std::deque<std::unique_ptr<request_state>> queued;
    std::size_t next_conn_serial = 1;
    std::size_t next_req_seq = 1;
    std::atomic<bool> hard_stop{false};
    bool draining = false;
    steady_clock::time_point drain_start{};
    const auto verbose_note = [&](const char* fmt, const std::string& a) {
        if (opt.verbose) {
            std::fprintf(stderr, fmt, a.c_str());
            std::fflush(stderr);
        }
    };

    if (opt.stdio) {
        auto c = std::make_unique<connection>();
        c->in_fd = STDIN_FILENO;
        c->out_fd = STDOUT_FILENO;
        c->serial = next_conn_serial++;
        c->is_stdio = true;
        c->out_limit = opt.output_buffer_limit;
        (void)farm::set_nonblock(c->in_fd);
        conns.push_back(std::move(c));
    }

    const auto conn_by_serial = [&](std::size_t serial) -> connection* {
        for (auto& c : conns)
            if (c->serial == serial && !c->dead)
                return c.get();
        return nullptr;
    };

    /// Cancel everything a vanished client owns; queued entries are
    /// silently dropped (there is nobody left to reply to).
    const auto orphan_requests_of = [&](std::size_t serial) {
        for (auto& rq : running)
            if (rq->conn_serial == serial)
                rq->cancel.store(true);
        for (auto it = queued.begin(); it != queued.end();) {
            if ((*it)->conn_serial == serial) {
                ++summary.cancelled;
                it = queued.erase(it);
            } else {
                ++it;
            }
        }
    };

    const auto close_conn = [&](connection& c, const char* why) {
        if (c.dead)
            return;
        c.dead = true;
        verbose_note("serve: connection closed (%s)\n", why);
        if (!c.is_stdio) {
            ::close(c.in_fd);
            c.in_fd = c.out_fd = -1;
        }
        orphan_requests_of(c.serial);
    };

    const auto send_to_conn = [&](connection& c, std::string frame) {
        if (c.dead)
            return;
        c.outbuf += frame;
        if (c.outbuf.size() > c.out_limit) {
            // Bounded memory beats a hung client: drop the reader, which
            // cancels its in-flight work, instead of buffering forever.
            close_conn(c, "output buffer overflow (slow reader)");
        }
    };

    const auto start_request = [&](std::unique_ptr<request_state> rq) {
        request_state& ref = *rq;
        verbose_note("serve: starting request '%s'\n", ref.id);
        ref.thread = std::thread([&ref, &opt, &hard_stop, wfd = wake_pipe[1]] {
            run_request(ref, opt, hard_stop, wfd);
        });
        running.push_back(std::move(rq));
    };

    /// One complete request line from one connection.
    const auto handle_frame = [&](connection& c, const std::string& line) {
        if (line.empty())
            return;
        request_frame req;
        try {
            req = parse_request_frame(line);
        } catch (const std::exception& e) {
            ++summary.protocol_errors;
            send_to_conn(c, error_frame("", e.what(), parse_offset_of(e.what())));
            return;
        }
        switch (req.kind) {
        case request_frame::op::ping:
            send_to_conn(c, pong_frame());
            return;
        case request_frame::op::cancel: {
            for (auto it = queued.begin(); it != queued.end(); ++it) {
                if ((*it)->conn_serial == c.serial && (*it)->id == req.id) {
                    ++summary.cancelled;
                    send_to_conn(c, error_frame(req.id, "request cancelled before start"));
                    queued.erase(it);
                    return;
                }
            }
            for (auto& rq : running) {
                if (rq->conn_serial == c.serial && rq->id == req.id) {
                    rq->cancel.store(true);
                    return; // the request thread replies when it stops
                }
            }
            send_to_conn(c, error_frame(req.id, "cancel: no active request with this id"));
            return;
        }
        case request_frame::op::submit:
            break;
        }
        if (draining) {
            send_to_conn(c, error_frame(req.id,
                                        "server is draining; not accepting new requests"));
            return;
        }
        for (auto& rq : running)
            if (rq->conn_serial == c.serial && rq->id == req.id) {
                send_to_conn(c, error_frame(req.id, "a request with this id is already "
                                                    "running on this connection"));
                return;
            }
        for (auto& rq : queued)
            if (rq->conn_serial == c.serial && rq->id == req.id) {
                send_to_conn(c, error_frame(req.id, "a request with this id is already "
                                                    "queued on this connection"));
                return;
            }
        // Validate the plan at admission so a rejected submit costs the
        // client one round-trip, not a spawned request.
        std::size_t points = 0;
        try {
            points = farm::campaign_from_json(req.plan).grid.size();
        } catch (const std::exception& e) {
            ++summary.protocol_errors;
            send_to_conn(c, error_frame(req.id, e.what()));
            return;
        }
        if (running.size() >= opt.max_concurrent && queued.size() >= opt.queue_depth) {
            ++summary.shed;
            send_to_conn(c, overloaded_frame(req.id, running.size(), queued.size()));
            return;
        }
        auto rq = std::make_unique<request_state>();
        rq->id = req.id;
        rq->conn_serial = c.serial;
        rq->dir = opt.root_dir + "/req-" + std::to_string(next_req_seq++);
        rq->plan = std::move(req.plan);
        rq->points = points;
        rq->workers = req.has_workers ? req.workers : 0;
        rq->has_deadline = req.has_deadline;
        rq->deadline_s = req.deadline_s;
        rq->admitted = steady_clock::now();
        ++summary.accepted;
        const bool starts_now = running.size() < opt.max_concurrent;
        send_to_conn(c, ack_frame(rq->id, points, starts_now ? 0 : queued.size() + 1,
                                  rq->dir));
        if (starts_now)
            start_request(std::move(rq));
        else
            queued.push_back(std::move(rq));
    };

    const auto process_input = [&](connection& c) {
        std::size_t nl;
        while (!c.dead && (nl = c.inbuf.find('\n')) != std::string::npos) {
            std::string line = c.inbuf.substr(0, nl);
            c.inbuf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (c.skip_to_newline) {
                c.skip_to_newline = false; // tail of the oversized frame
                continue;
            }
            if (line.size() > opt.max_frame_bytes) {
                ++summary.protocol_errors;
                send_to_conn(c, error_frame("",
                                            "request frame exceeds "
                                                + std::to_string(opt.max_frame_bytes)
                                                + " bytes",
                                            static_cast<long>(opt.max_frame_bytes)));
                continue;
            }
            handle_frame(c, line);
        }
        if (!c.dead && !c.skip_to_newline && c.inbuf.size() > opt.max_frame_bytes) {
            // Newline never arrived: reply now, then discard bytes until
            // the frame finally ends (the connection stays usable).
            ++summary.protocol_errors;
            send_to_conn(c, error_frame("",
                                        "request frame exceeds "
                                            + std::to_string(opt.max_frame_bytes)
                                            + " bytes",
                                        static_cast<long>(opt.max_frame_bytes)));
            c.skip_to_newline = true;
            c.inbuf.clear();
        }
        if (!c.dead && c.skip_to_newline)
            c.inbuf.clear(); // still inside the oversized frame: discard
        if (!c.dead && !c.inbuf.empty()
            && fire_fault(fault_directive::kind::mid_frame_kill, "mid-frame-kill",
                          c.serial))
            close_conn(c, "fault injection: mid-frame-kill");
    };

    try {
        while (true) {
            // --- shutdown / drain ladder ---
            const int level = opt.shutdown != nullptr ? opt.shutdown->load() : 0;
            if (level >= 1 && !draining) {
                draining = true;
                drain_start = steady_clock::now();
                summary.drained = true;
                verbose_note("serve: draining%s\n", "");
                for (auto& rq : queued) {
                    if (connection* c = conn_by_serial(rq->conn_serial))
                        send_to_conn(*c,
                                     error_frame(rq->id, "server is draining; request "
                                                         "dropped before start"));
                    ++summary.cancelled;
                }
                queued.clear();
            }
            if (draining && !hard_stop.load()
                && (level >= 2
                    || steady_clock::now() - drain_start
                        > std::chrono::microseconds(
                            static_cast<long>(opt.drain_grace_s * 1e6))))
                hard_stop.store(true);

            // --- admit queued work into free slots ---
            while (!draining && !queued.empty()
                   && running.size() < opt.max_concurrent) {
                auto rq = std::move(queued.front());
                queued.pop_front();
                start_request(std::move(rq));
            }

            // --- exit conditions ---
            const bool any_conn_alive = std::any_of(
                conns.begin(), conns.end(), [](const auto& c) { return !c->dead; });
            if (running.empty() && queued.empty()) {
                if (draining)
                    break;
                if (opt.stdio && !any_conn_alive)
                    break; // single client hung up; nothing left to do
            }

            // --- poll ---
            std::vector<pollfd> fds;
            fds.push_back({wake_pipe[0], POLLIN, 0});
            if (listen_fd >= 0 && !draining)
                fds.push_back({listen_fd, POLLIN, 0});
            for (auto& c : conns) {
                if (c->dead)
                    continue;
                const bool want_write = !c->outbuf.empty() && !c->no_drain;
                short events = c->in_eof ? 0 : POLLIN;
                if (want_write && c->out_fd == c->in_fd)
                    events |= POLLOUT;
                // Keep half-closed sockets in the poll set with events=0:
                // POLLHUP/POLLERR are reported regardless, and they are
                // the only way to tell a full disconnect from a polite
                // shutdown(WR) while a request is still owed frames.
                if (events != 0 || !c->is_stdio)
                    fds.push_back({c->in_fd, events, 0});
                if (c->out_fd != c->in_fd && want_write)
                    fds.push_back({c->out_fd, POLLOUT, 0});
            }
            const int rc = ::poll(fds.data(), fds.size(), 200);
            if (rc < 0 && errno != EINTR)
                throw analysis_error("serve: poll: " + errno_text());

            { // drain wakeup bytes
                char buf[256];
                while (farm::read_retry(wake_pipe[0], buf, sizeof buf) > 0) { }
            }

            // --- accept new clients ---
            if (listen_fd >= 0 && !draining) {
                while (true) {
                    const int fd = ::accept(listen_fd, nullptr, nullptr);
                    if (fd < 0) {
                        if (errno == EINTR)
                            continue;
                        break; // EAGAIN or transient accept error
                    }
                    farm::set_cloexec(fd);
                    (void)farm::set_nonblock(fd);
                    auto c = std::make_unique<connection>();
                    c->in_fd = c->out_fd = fd;
                    c->serial = next_conn_serial++;
                    c->out_limit = opt.output_buffer_limit;
                    if (fire_fault(fault_directive::kind::slow_reader, "slow-reader",
                                   c->serial)) {
                        c->no_drain = true;
                        c->out_limit = 4096;
                    }
                    verbose_note("serve: connection %s accepted\n",
                                 std::to_string(c->serial));
                    conns.push_back(std::move(c));
                }
            }

            // --- read client input ---
            const auto revents_of = [&](int fd) -> short {
                for (const pollfd& p : fds)
                    if (p.fd == fd)
                        return p.revents;
                return 0;
            };
            for (auto& c : conns) {
                if (c->dead)
                    continue;
                // POLLHUP = the peer closed the whole socket (a plain
                // shutdown(WR) half-close only reads as EOF). Noted
                // before reading, acted on after, so a "cancel" sent
                // just before the close still lands. Stdio is exempt: a
                // closed stdin pipe raises POLLHUP too, but the client
                // may well still be reading stdout.
                const bool hung_up = !c->is_stdio
                    && (revents_of(c->in_fd) & (POLLHUP | POLLERR)) != 0;
                if (c->in_eof) {
                    if (hung_up)
                        close_conn(*c, "client disconnected");
                    continue;
                }
                char buf[65536];
                while (true) {
                    const ssize_t n = farm::read_retry(c->in_fd, buf, sizeof buf);
                    if (n > 0) {
                        c->inbuf.append(buf, static_cast<std::size_t>(n));
                        if (c->inbuf.size() > opt.max_frame_bytes * 2 + sizeof buf)
                            break; // let frame processing shed the backlog
                        continue;
                    }
                    if (n < 0 && errno == EAGAIN)
                        break;
                    if (n == 0) {
                        // Half-close: the client is done talking but may
                        // still be reading; finish what it already sent.
                        c->in_eof = true;
                    } else {
                        close_conn(*c, "read error");
                    }
                    break;
                }
                if (!c->dead)
                    process_input(*c);
                if (!c->dead && hung_up)
                    close_conn(*c, "client disconnected");
            }

            // --- ship frames produced by request threads ---
            for (auto& rq : running) {
                std::vector<std::string> frames;
                {
                    const std::lock_guard<std::mutex> lock(rq->mu);
                    frames.swap(rq->frames);
                }
                if (frames.empty())
                    continue;
                connection* c = conn_by_serial(rq->conn_serial);
                if (c == nullptr) {
                    rq->cancel.store(true); // client gone; stop computing
                    continue;
                }
                for (std::string& f : frames) {
                    const bool is_point = f.rfind("{\"frame\":\"point\"", 0) == 0;
                    send_to_conn(*c, std::move(f));
                    if (is_point
                        && fire_fault(fault_directive::kind::client_drop, "client-drop",
                                      c->serial)) {
                        close_conn(*c, "fault injection: client-drop");
                        break;
                    }
                }
            }

            // --- reap finished requests ---
            for (auto it = running.begin(); it != running.end();) {
                if (!(*it)->done.load()) {
                    ++it;
                    continue;
                }
                (*it)->thread.join();
                // Ship any frames the thread pushed after the drain above.
                {
                    std::vector<std::string> frames;
                    {
                        const std::lock_guard<std::mutex> lock((*it)->mu);
                        frames.swap((*it)->frames);
                    }
                    if (connection* c = conn_by_serial((*it)->conn_serial))
                        for (std::string& f : frames)
                            send_to_conn(*c, std::move(f));
                }
                switch ((*it)->outcome.load()) {
                case 1: ++summary.completed; break;
                case 2: ++summary.cancelled; break;
                default: ++summary.failed; break;
                }
                verbose_note("serve: request '%s' finished\n", (*it)->id);
                it = running.erase(it);
            }

            // --- flush client output buffers ---
            for (auto& c : conns) {
                if (c->dead || c->outbuf.empty() || c->no_drain)
                    continue;
                while (!c->outbuf.empty()) {
                    const ssize_t n
                        = ::write(c->out_fd, c->outbuf.data(), c->outbuf.size());
                    if (n > 0) {
                        c->outbuf.erase(0, static_cast<std::size_t>(n));
                        continue;
                    }
                    if (n < 0 && errno == EINTR)
                        continue;
                    if (n < 0 && errno == EAGAIN)
                        break;
                    close_conn(*c, "write error (client gone)");
                    break;
                }
            }
            // A half-closed connection is reaped once nothing more is
            // owed to it: no request of its still runs or waits, and its
            // output buffer has been flushed.
            for (auto& c : conns) {
                if (c->dead || !c->in_eof || !c->outbuf.empty() || !c->inbuf.empty())
                    continue;
                const auto owns = [&](const auto& rq) {
                    return rq->conn_serial == c->serial;
                };
                if (!std::any_of(running.begin(), running.end(), owns)
                    && !std::any_of(queued.begin(), queued.end(), owns))
                    close_conn(*c, "client EOF");
            }
            conns.erase(std::remove_if(conns.begin(), conns.end(),
                                       [](const auto& c) { return c->dead; }),
                        conns.end());
        }
    } catch (...) {
        // Crash-only discipline: even an unexpected loop error must not
        // leak request threads (each would leave worker processes).
        hard_stop.store(true);
        for (auto& rq : running) {
            rq->cancel.store(true);
            if (rq->thread.joinable())
                rq->thread.join();
        }
        if (listen_fd >= 0) {
            ::close(listen_fd);
            ::unlink(opt.socket_path.c_str());
        }
        ::close(wake_pipe[0]);
        ::close(wake_pipe[1]);
        throw;
    }

    // Final flush so terminal frames (reports, drain errors) reach
    // still-connected clients before the fds go away.
    for (auto& c : conns) {
        if (c->dead || c->outbuf.empty() || c->no_drain)
            continue;
        (void)farm::write_fully(c->out_fd, c->outbuf.data(), c->outbuf.size());
    }
    for (auto& c : conns)
        if (!c->dead && !c->is_stdio)
            ::close(c->in_fd);
    if (listen_fd >= 0) {
        ::close(listen_fd);
        ::unlink(opt.socket_path.c_str());
    }
    ::close(wake_pipe[0]);
    ::close(wake_pipe[1]);
    return summary;
}

} // namespace acstab::serve
