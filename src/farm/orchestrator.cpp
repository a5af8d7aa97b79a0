#include "farm/orchestrator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.h"
#include "core/param_grid.h"
#include "farm/executor.h"
#include "farm/fault_inject.h"
#include "farm/posix_io.h"
#include "farm/shard_store.h"

namespace acstab::farm {

namespace {

    using steady_clock = std::chrono::steady_clock;

    constexpr const char* journal_schema = "acstab-farm-journal-v1";

    [[nodiscard]] std::string errno_text()
    {
        return std::strerror(errno);
    }

    /// Locale-independent seconds formatting for error/journal text (the
    /// quarantine error lands in the merged report, whose bytes must not
    /// depend on the host locale).
    [[nodiscard]] std::string format_seconds(real s)
    {
        return json_value::number(s).dump();
    }

    [[nodiscard]] std::string dirname_of(const std::string& path)
    {
        const std::size_t pos = path.rfind('/');
        if (pos == std::string::npos)
            return ".";
        return pos == 0 ? "/" : path.substr(0, pos);
    }

    // ----- deterministic fault injection (ACSTAB_FAULT_INJECT) -----
    // Directive parsing and fire-once markers live in farm/fault_inject.h,
    // shared with the serve daemon (whose client-drop/slow-reader/
    // mid-frame-kill directives this hook ignores).

    /// Worker-side hook, called before each point runs.
    void fault_point_hook(const std::vector<fault_directive>& faults,
                          const std::string& marker_dir, std::size_t index)
    {
        for (const fault_directive& d : faults) {
            if (d.arg != index)
                continue;
            switch (d.k) {
            case fault_directive::kind::crash:
                if (d.always || try_fire_marker(marker_dir, "crash", index))
                    ::kill(::getpid(), SIGKILL);
                break;
            case fault_directive::kind::stall:
                if (d.always || try_fire_marker(marker_dir, "stall", index))
                    fault_sleep(d.seconds);
                break;
            default:
                break; // orchestrator- or serve-side directive
            }
        }
    }

    // ----- journal -----

    class journal_writer {
    public:
        journal_writer() = default;
        ~journal_writer()
        {
            if (file_ != nullptr)
                std::fclose(file_);
        }
        journal_writer(const journal_writer&) = delete;
        journal_writer& operator=(const journal_writer&) = delete;

        void open_append(const std::string& path)
        {
            file_ = std::fopen(path.c_str(), "ab");
            if (file_ == nullptr)
                throw analysis_error("farm: cannot open journal '" + path
                                     + "': " + errno_text());
        }

        /// One flushed JSONL line per event; losing the tail on a crash
        /// costs at worst repeated work (shard streams are authoritative).
        void append(const json_value& event)
        {
            if (file_ == nullptr)
                return;
            const std::string line = event.dump() + "\n";
            std::fwrite(line.data(), 1, line.size(), file_);
            std::fflush(file_);
        }

    private:
        std::FILE* file_ = nullptr;
    };

    // ----- worker process management -----

    struct worker_proc {
        pid_t pid = -1;
        int to_fd = -1;   ///< orchestrator -> worker stdin
        int from_fd = -1; ///< worker stdout -> orchestrator
        std::size_t id = 0;
        bool idle = true;
        bool timed_out = false;
        core::point_lease lease{0, 0};
        std::size_t next_unacked = 0; ///< in-flight point (leases run in order)
        steady_clock::time_point point_start{};
        std::string buf;        ///< partial protocol line
        std::string shard_path; ///< this worker's append-only stream
        /// Read descriptor on shard_path for the on_point streaming tail
        /// reader, opened at its first read and kept for the worker's
        /// lifetime (-1 = not open yet).
        int tail_fd = -1;
        /// Byte offset of the next unread record line in shard_path (0 =
        /// header not skipped yet); advanced per acknowledged point.
        std::uint64_t tail_offset = 0;
    };

    /// The complete line starting at `offset` of the worker's stream,
    /// newline excluded; nullopt when the bytes there end without one.
    [[nodiscard]] std::optional<std::string> read_line_at(int fd, std::uint64_t offset)
    {
        std::string line;
        char chunk[8192];
        while (true) {
            ssize_t n;
            do
                n = ::pread(fd, chunk, sizeof chunk, static_cast<off_t>(offset + line.size()));
            while (n < 0 && errno == EINTR);
            if (n <= 0)
                return std::nullopt;
            const std::size_t got = static_cast<std::size_t>(n);
            if (const void* nl = std::memchr(chunk, '\n', got)) {
                line.append(chunk, static_cast<std::size_t>(static_cast<const char*>(nl) - chunk));
                return line;
            }
            line.append(chunk, got);
        }
    }

    /// Read the one record line the worker appended (and flushed) before
    /// the acknowledgment that just arrived. Returns nullopt on any read
    /// hiccup — streaming is best-effort; the merge stays authoritative.
    [[nodiscard]] std::optional<std::string> read_appended_record(worker_proc& w)
    {
        if (w.tail_fd < 0) {
            w.tail_fd = ::open(w.shard_path.c_str(), O_RDONLY | O_CLOEXEC);
            if (w.tail_fd < 0)
                return std::nullopt;
        }
        if (w.tail_offset == 0) {
            const std::optional<std::string> header = read_line_at(w.tail_fd, 0);
            if (!header)
                return std::nullopt;
            w.tail_offset = header->size() + 1;
        }
        std::optional<std::string> line = read_line_at(w.tail_fd, w.tail_offset);
        if (line)
            w.tail_offset += line->size() + 1;
        return line;
    }

    [[nodiscard]] std::string self_exe_path()
    {
        char buf[4096];
        const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
        if (n <= 0)
            throw analysis_error("farm: cannot resolve own executable path; "
                                 "pass the tool path explicitly");
        buf[n] = '\0';
        return buf;
    }

    [[nodiscard]] worker_proc spawn_worker(const exec_options& opt,
                                           const std::string& tool,
                                           std::size_t id,
                                           const std::string& shard_path)
    {
        int to_pipe[2];
        int from_pipe[2];
        if (::pipe(to_pipe) != 0)
            throw analysis_error("farm: pipe: " + errno_text());
        if (::pipe(from_pipe) != 0) {
            ::close(to_pipe[0]);
            ::close(to_pipe[1]);
            throw analysis_error("farm: pipe: " + errno_text());
        }
        // Parent-held ends must not leak into sibling workers.
        set_cloexec(to_pipe[1]);
        set_cloexec(from_pipe[0]);
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(to_pipe[0]);
            ::close(to_pipe[1]);
            ::close(from_pipe[0]);
            ::close(from_pipe[1]);
            throw analysis_error("farm: fork: " + errno_text());
        }
        if (pid == 0) {
            ::dup2(to_pipe[0], STDIN_FILENO);
            ::dup2(from_pipe[1], STDOUT_FILENO);
            ::close(to_pipe[0]);
            ::close(from_pipe[1]);
            const std::string id_str = std::to_string(id);
            const char* argv[] = {
                tool.c_str(),      "farm",         "worker",
                opt.plan_path.c_str(), "--shard-file", shard_path.c_str(),
                "--worker-id",     id_str.c_str(), nullptr,
            };
            ::execv(tool.c_str(), const_cast<char* const*>(argv));
            std::fprintf(stderr, "farm worker: cannot exec '%s': %s\n", tool.c_str(),
                         std::strerror(errno));
            ::_exit(127);
        }
        ::close(to_pipe[0]);
        ::close(from_pipe[1]);
        worker_proc w;
        w.pid = pid;
        w.to_fd = to_pipe[1];
        w.from_fd = from_pipe[0];
        w.id = id;
        w.shard_path = shard_path;
        return w;
    }

    /// worker-<id>.jsonl shard streams already present in the workdir,
    /// id-sorted, plus the highest id seen (respawned workers continue
    /// the numbering so no file is ever appended by two processes).
    struct shard_file_listing {
        std::vector<std::string> paths;
        std::size_t next_id = 0;
    };

    [[nodiscard]] shard_file_listing list_shard_files(const std::string& workdir)
    {
        shard_file_listing out;
        DIR* dir = ::opendir(workdir.c_str());
        if (dir == nullptr)
            return out;
        std::vector<std::pair<std::size_t, std::string>> found;
        while (dirent* ent = ::readdir(dir)) {
            const std::string name = ent->d_name;
            if (name.size() < std::strlen("worker-0.jsonl") || name.rfind("worker-", 0) != 0
                || name.substr(name.size() - 6) != ".jsonl")
                continue;
            const std::string digits = name.substr(7, name.size() - 7 - 6);
            if (digits.empty()
                || digits.find_first_not_of("0123456789") != std::string::npos)
                continue;
            const std::size_t id = std::strtoul(digits.c_str(), nullptr, 10);
            out.next_id = std::max(out.next_id, id + 1);
            // A worker killed between creating its stream and writing the
            // header leaves an empty file: it holds no records.
            const std::string path = workdir + "/" + name;
            struct stat st {};
            if (::stat(path.c_str(), &st) == 0 && st.st_size == 0)
                continue;
            found.emplace_back(id, path);
        }
        ::closedir(dir);
        std::sort(found.begin(), found.end());
        for (auto& [id, path] : found)
            out.paths.push_back(std::move(path));
        return out;
    }

    [[nodiscard]] std::string describe_worker_death(int status)
    {
        if (WIFSIGNALED(status))
            return "worker killed by signal " + std::to_string(WTERMSIG(status));
        if (WIFEXITED(status))
            return "worker exited with status " + std::to_string(WEXITSTATUS(status));
        return "worker stopped unexpectedly";
    }

} // namespace

int run_worker(const campaign_spec& spec, const std::string& shard_path,
               std::size_t worker_id)
{
    // A dying orchestrator must not kill this worker mid-append via
    // SIGPIPE; the failed ack below is the clean exit path (the appended
    // record is durable either way).
    ignore_sigpipe();
    const std::vector<fault_directive> faults = parse_fault_env();
    const std::string marker_dir = dirname_of(shard_path);
    const point_runner runner(spec);
    shard_writer writer(shard_path, spec, worker_id);

    const auto ack = [](const std::string& text) {
        return std::fwrite(text.data(), 1, text.size(), stdout) == text.size()
            && std::fflush(stdout) == 0;
    };
    std::string line;
    while (std::getline(std::cin, line)) {
        unsigned long begin = 0;
        unsigned long end = 0;
        if (std::sscanf(line.c_str(), "L %lu %lu", &begin, &end) != 2) {
            std::fprintf(stderr, "farm worker: bad lease line '%s'\n", line.c_str());
            return 2;
        }
        for (unsigned long i = begin; i < end; ++i) {
            fault_point_hook(faults, marker_dir, i);
            const point_record rec = runner.run(i);
            // Durability before acknowledgment: the record is appended
            // and flushed FIRST, so an ack always refers to a record
            // that survives this process.
            writer.append(rec);
            if (!ack("P " + std::to_string(i) + "\n"))
                return 0; // orchestrator gone (EPIPE); records are durable
        }
        if (!ack("D " + std::to_string(begin) + " " + std::to_string(end) + "\n"))
            return 0;
    }
    return 0;
}

exec_summary exec_campaign(const campaign_spec& spec, const exec_options& opt)
{
    const std::size_t total = spec.grid.size();
    const std::string spec_bytes = to_json(spec).dump();
    if (opt.workdir.empty())
        throw analysis_error("farm exec: no working directory (--dir)");
    if (opt.out.empty())
        throw analysis_error("farm exec: no report path (--out)");
    if (opt.plan_path.empty())
        throw analysis_error("farm exec: no plan path for workers");
    if (opt.max_attempts == 0)
        throw analysis_error("farm exec: --retries must allow at least one attempt");
    // Probe the report destination BEFORE any work runs: an unwritable
    // --out would otherwise surface only at the final merge, hours of
    // compute later, as a mid-merge crash with partial state.
    {
        const std::string out_dir = dirname_of(opt.out);
        struct stat st {};
        if (::stat(out_dir.c_str(), &st) != 0)
            throw analysis_error("farm exec: report directory '" + out_dir
                                 + "' does not exist (--out " + opt.out
                                 + "); create it first — no points were run");
        if (!S_ISDIR(st.st_mode))
            throw analysis_error("farm exec: report path '" + opt.out
                                 + "' is not inside a directory ('" + out_dir
                                 + "' is not a directory) — no points were run");
        if (::access(out_dir.c_str(), W_OK) != 0)
            throw analysis_error("farm exec: report directory '" + out_dir
                                 + "' is not writable: " + errno_text()
                                 + " — no points were run");
    }
    const std::size_t nworkers = std::min(std::max<std::size_t>(1, opt.workers), total);
    const std::string tool = opt.tool_path.empty() ? self_exe_path() : opt.tool_path;

    if (::mkdir(opt.workdir.c_str(), 0777) != 0 && errno != EEXIST)
        throw analysis_error("farm exec: cannot create workdir '" + opt.workdir
                             + "': " + errno_text());

    // --- journal: create fresh (atomically) or verify + continue ---
    const std::string journal_path = opt.workdir + "/journal.jsonl";
    const bool journal_exists = ::access(journal_path.c_str(), F_OK) == 0;
    if (journal_exists && !opt.resume)
        throw analysis_error("farm exec: '" + opt.workdir
                             + "' already holds a campaign journal; pass --resume to "
                               "continue it or choose a fresh --dir");
    if (!journal_exists && opt.resume)
        throw analysis_error("farm exec: nothing to resume in '" + opt.workdir
                             + "' (no journal)");
    if (journal_exists) {
        std::ifstream in(journal_path, std::ios::binary);
        std::string header_line;
        if (!std::getline(in, header_line))
            throw analysis_error("farm exec: journal '" + journal_path + "' is empty");
        const json_value header
            = parse_farm_document(header_line, journal_path, farm_document::journal);
        const json_value* schema = header.find("schema");
        if (schema == nullptr || schema->as_string() != journal_schema)
            throw analysis_error("farm exec: '" + journal_path
                                 + "' is not an acstab farm journal");
        if (header.at("campaign").dump() != spec_bytes)
            throw analysis_error("farm exec: the plan does not match the campaign "
                                 "journaled in '" + opt.workdir
                                 + "' (resume must use the original plan file)");
    } else {
        json_value header = json_value::object();
        header.set("schema", json_value::str(journal_schema));
        header.set("campaign", json_value::parse(spec_bytes));
        header.set("workers", json_value::number(nworkers));
        header.set("point_timeout_s", json_value::number(opt.point_timeout_s));
        header.set("max_attempts", json_value::number(opt.max_attempts));
        const std::string tmp = journal_path + ".tmp";
        std::FILE* f = std::fopen(tmp.c_str(), "wb");
        if (f == nullptr)
            throw analysis_error("farm exec: cannot write '" + tmp + "': " + errno_text());
        const std::string line = header.dump() + "\n";
        const bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size()
            && std::fflush(f) == 0;
        std::fclose(f);
        if (!ok || std::rename(tmp.c_str(), journal_path.c_str()) != 0) {
            std::remove(tmp.c_str());
            throw analysis_error("farm exec: cannot create journal '" + journal_path
                                 + "': " + errno_text());
        }
    }
    journal_writer journal;
    journal.open_append(journal_path);

    // --- recover completed points from existing shard streams ---
    core::lease_ledger ledger(total);
    shard_file_listing existing = list_shard_files(opt.workdir);
    for (const std::string& path : existing.paths) {
        const shard_stream_scan scan = scan_shard_stream(path, spec_bytes);
        for (const stream_record_ref& ref : scan.records) {
            if (ref.point >= total)
                throw analysis_error("farm exec: shard file '" + path
                                     + "' has record index " + std::to_string(ref.point)
                                     + " outside the grid");
            ledger.complete(ref.point);
        }
    }
    std::size_t next_worker_id = existing.next_id;

    const std::vector<fault_directive> faults = parse_fault_env();
    const std::size_t chunk
        = std::clamp<std::size_t>(total / (nworkers * 4), 1, 16);

    {
        json_value ev = json_value::object();
        ev.set("ev", json_value::str("start"));
        ev.set("resume", json_value::boolean(opt.resume));
        ev.set("pending", json_value::number(ledger.unresolved()));
        ev.set("workers", json_value::number(nworkers));
        journal.append(ev);
    }

    // Writing a lease to a worker that died microseconds ago must not
    // kill the orchestrator. Restored on every exit path.
    struct sigpipe_guard {
        struct sigaction old {};
        sigpipe_guard()
        {
            struct sigaction ignore {};
            ignore.sa_handler = SIG_IGN;
            ::sigaction(SIGPIPE, &ignore, &old);
        }
        ~sigpipe_guard() { ::sigaction(SIGPIPE, &old, nullptr); }
    } pipe_guard;

    std::vector<worker_proc> workers;
    // On ANY exit (including a thrown setup/journal error) no worker
    // process may outlive the orchestrator.
    struct fleet_guard {
        std::vector<worker_proc>& fleet;
        ~fleet_guard()
        {
            for (worker_proc& w : fleet) {
                if (w.pid > 0) {
                    ::kill(w.pid, SIGKILL);
                    int status = 0;
                    ::waitpid(w.pid, &status, 0);
                }
                if (w.to_fd >= 0)
                    ::close(w.to_fd);
                if (w.from_fd >= 0)
                    ::close(w.from_fd);
                if (w.tail_fd >= 0)
                    ::close(w.tail_fd);
            }
        }
    } guard{workers};
    std::vector<std::pair<steady_clock::time_point, std::size_t>> cooling;
    std::map<std::size_t, std::string> quarantine_errors;
    std::size_t completed_this_run = 0;
    std::size_t idle_deaths = 0; ///< deaths with no lease: startup failures
    bool interrupted = false;

    const auto close_worker_fds = [](worker_proc& w) {
        if (w.to_fd >= 0)
            ::close(w.to_fd);
        if (w.from_fd >= 0)
            ::close(w.from_fd);
        if (w.tail_fd >= 0)
            ::close(w.tail_fd);
        w.to_fd = w.from_fd = w.tail_fd = -1;
    };

    const auto user_interrupted = [&] {
        return (opt.interrupt != nullptr && *opt.interrupt != 0)
            || (opt.cancelled && opt.cancelled());
    };

    /// A worker died (crash, timeout kill, or premature exit): charge the
    /// in-flight point one attempt, requeue the untouched lease tail,
    /// reap the process.
    const auto handle_death = [&](worker_proc& w) {
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        close_worker_fds(w);
        w.pid = -1;
        const std::string reason = w.timed_out
            ? "point exceeded " + format_seconds(opt.point_timeout_s)
                + "s wall-clock timeout"
            : describe_worker_death(status);
        if (w.idle) {
            // Death with no lease in hand is a startup failure (bad tool
            // path, plan unreadable by the worker, ...). A few in a row
            // means every respawn will fail too — abort instead of
            // spinning the respawn loop forever.
            if (++idle_deaths > nworkers * 3)
                throw analysis_error("farm exec: workers keep dying before accepting "
                                     "work (" + reason
                                     + "); check the worker tool path and plan file");
        }
        if (!w.idle && w.next_unacked < w.lease.end) {
            for (std::size_t i = w.next_unacked + 1; i < w.lease.end; ++i)
                ledger.requeue(i);
            const std::size_t inflight = w.next_unacked;
            const std::size_t attempts = ledger.fail(inflight);
            {
                json_value ev = json_value::object();
                ev.set("ev", json_value::str("fail"));
                ev.set("point", json_value::number(inflight));
                ev.set("attempt", json_value::number(attempts));
                ev.set("error", json_value::str(reason));
                journal.append(ev);
            }
            if (attempts >= opt.max_attempts) {
                ledger.quarantine(inflight);
                quarantine_errors[inflight] = "quarantined after "
                    + std::to_string(attempts) + " failed attempts; last error: " + reason;
                {
                    json_value ev = json_value::object();
                    ev.set("ev", json_value::str("quarantine"));
                    ev.set("point", json_value::number(inflight));
                    ev.set("error", json_value::str(quarantine_errors[inflight]));
                    journal.append(ev);
                }
                if (opt.verbose) {
                    std::printf("farm exec: point %zu quarantined (%s)\n", inflight,
                                reason.c_str());
                    std::fflush(stdout);
                }
            } else {
                const std::size_t shift = std::min<std::size_t>(attempts - 1, 6);
                const real delay = opt.backoff_s * static_cast<real>(1u << shift);
                cooling.emplace_back(
                    steady_clock::now()
                        + std::chrono::microseconds(static_cast<long>(delay * 1e6)),
                    inflight);
                if (opt.verbose) {
                    std::printf("farm exec: point %zu failed (%s), retry %zu/%zu\n",
                                inflight, reason.c_str(), attempts + 1, opt.max_attempts);
                    std::fflush(stdout);
                }
            }
        }
    };

    /// Protocol lines from one worker's stdout.
    const auto handle_line = [&](worker_proc& w, const std::string& line) {
        unsigned long a = 0;
        unsigned long b = 0;
        if (std::sscanf(line.c_str(), "P %lu", &a) == 1) {
            ledger.complete(a);
            {
                json_value ev = json_value::object();
                ev.set("ev", json_value::str("done"));
                ev.set("point", json_value::number(static_cast<std::size_t>(a)));
                ev.set("worker", json_value::number(w.id));
                journal.append(ev);
            }
            w.next_unacked = a + 1;
            w.point_start = steady_clock::now();
            w.timed_out = false;
            ++completed_this_run;
            if (opt.on_point) {
                // The record was flushed before this ack, so the tail
                // read sees a complete line.
                if (std::optional<std::string> rec = read_appended_record(w))
                    opt.on_point(static_cast<std::size_t>(a), *rec);
            }
            if (opt.verbose) {
                std::printf("farm exec: point %lu done (%zu/%zu)\n", a, ledger.done(),
                            total);
                std::fflush(stdout);
            }
            for (const fault_directive& d : faults) {
                if (d.k == fault_directive::kind::interrupt && completed_this_run >= d.arg
                    && (d.always || try_fire_marker(opt.workdir, "interrupt", d.arg)))
                    interrupted = true;
            }
        } else if (std::sscanf(line.c_str(), "D %lu %lu", &a, &b) == 2) {
            w.idle = true;
            w.lease = {0, 0};
        } else if (!line.empty()) {
            std::fprintf(stderr, "farm exec: ignoring unexpected worker line '%s'\n",
                         line.c_str());
        }
    };

    while (!interrupted && !user_interrupted() && ledger.unresolved() > 0) {
        const steady_clock::time_point now = steady_clock::now();

        // Backoff expiry: cooling points become grantable again.
        for (std::size_t i = 0; i < cooling.size();) {
            if (cooling[i].first <= now) {
                ledger.release(cooling[i].second);
                cooling[i] = cooling.back();
                cooling.pop_back();
            } else {
                ++i;
            }
        }

        // Keep the worker pool full; respawns get fresh ids and fresh
        // shard files (a dead worker's stream may end mid-record).
        while (workers.size() < nworkers) {
            const std::size_t id = next_worker_id++;
            const std::string shard_path
                = opt.workdir + "/worker-" + std::to_string(id) + ".jsonl";
            workers.push_back(spawn_worker(opt, tool, id, shard_path));
        }

        // Hand small leases to idle workers (dynamic work-stealing).
        for (worker_proc& w : workers) {
            if (!w.idle)
                continue;
            const std::optional<core::point_lease> lease = ledger.grant(chunk);
            if (!lease)
                break;
            const std::string msg = "L " + std::to_string(lease->begin) + " "
                + std::to_string(lease->end) + "\n";
            if (!write_fully(w.to_fd, msg.data(), msg.size())) {
                // Dead before the lease arrived: undo the grant; the
                // poll loop below reaps the corpse.
                for (std::size_t i = lease->begin; i < lease->end; ++i)
                    ledger.requeue(i);
                continue;
            }
            w.idle = false;
            w.lease = *lease;
            w.next_unacked = lease->begin;
            w.point_start = now;
            w.timed_out = false;
            {
                json_value ev = json_value::object();
                ev.set("ev", json_value::str("lease"));
                ev.set("worker", json_value::number(w.id));
                ev.set("begin", json_value::number(lease->begin));
                ev.set("end", json_value::number(lease->end));
                journal.append(ev);
            }
        }

        // Sleep until the next deadline (lease timeout or backoff
        // expiry), capped low enough to stay SIGINT-responsive.
        long timeout_ms = 200;
        const auto consider = [&](steady_clock::time_point due) {
            const long ms = static_cast<long>(
                std::chrono::duration_cast<std::chrono::milliseconds>(due - now).count());
            timeout_ms = std::clamp(ms, 0L, timeout_ms);
        };
        const auto point_deadline = [&](const worker_proc& w) {
            return w.point_start
                + std::chrono::microseconds(
                    static_cast<long>(opt.point_timeout_s * 1e6));
        };
        for (const worker_proc& w : workers)
            if (!w.idle)
                consider(point_deadline(w));
        for (const auto& [due, idx] : cooling)
            consider(due);

        std::vector<pollfd> fds;
        fds.reserve(workers.size());
        for (const worker_proc& w : workers)
            fds.push_back({w.from_fd, POLLIN, 0});
        const int rc = ::poll(fds.data(), fds.size(), static_cast<int>(timeout_ms));
        if (rc < 0 && errno != EINTR)
            throw analysis_error("farm exec: poll: " + errno_text());

        std::vector<std::size_t> dead;
        for (std::size_t i = 0; i < workers.size() && rc > 0; ++i) {
            if (fds[i].revents == 0)
                continue;
            char buf[4096];
            const ssize_t n = read_retry(workers[i].from_fd, buf, sizeof buf);
            if (n > 0) {
                workers[i].buf.append(buf, static_cast<std::size_t>(n));
                std::size_t nl;
                while ((nl = workers[i].buf.find('\n')) != std::string::npos) {
                    const std::string line = workers[i].buf.substr(0, nl);
                    workers[i].buf.erase(0, nl + 1);
                    handle_line(workers[i], line);
                }
            } else if (n == 0 || (n < 0 && errno != EAGAIN)) {
                dead.push_back(i);
            }
        }
        // Reap dead workers, highest index first so the swap-erase below
        // never moves another doomed entry.
        std::sort(dead.rbegin(), dead.rend());
        for (const std::size_t i : dead) {
            handle_death(workers[i]);
            workers[i] = std::move(workers.back());
            workers.pop_back();
        }

        // Per-point wall-clock enforcement: kill the worker; the EOF on
        // its pipe routes the point through the normal crash path with
        // the timeout recorded as the failure reason.
        const steady_clock::time_point after = steady_clock::now();
        for (worker_proc& w : workers) {
            if (!w.idle && !w.timed_out && after >= point_deadline(w)) {
                w.timed_out = true;
                ::kill(w.pid, SIGKILL);
            }
        }
    }

    if (interrupted || user_interrupted()) {
        // Stop the fleet hard; shard streams are crash-safe by design,
        // so --resume recovers every acknowledged point.
        for (worker_proc& w : workers) {
            ::kill(w.pid, SIGKILL);
            int status = 0;
            ::waitpid(w.pid, &status, 0);
            close_worker_fds(w);
        }
        json_value ev = json_value::object();
        ev.set("ev", json_value::str("interrupt"));
        ev.set("completed", json_value::number(ledger.done()));
        journal.append(ev);
        workers.clear();
        exec_summary summary;
        summary.total = total;
        summary.completed = ledger.done();
        summary.interrupted = true;
        for (const auto& [idx, err] : quarantine_errors)
            summary.quarantined.emplace_back(idx, err);
        return summary;
    }

    // Graceful shutdown: close stdins (workers exit on EOF), drain any
    // trailing acknowledgments, reap.
    for (worker_proc& w : workers) {
        ::close(w.to_fd);
        w.to_fd = -1;
    }
    for (worker_proc& w : workers) {
        char buf[4096];
        while (::read(w.from_fd, buf, sizeof buf) > 0) { }
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        close_worker_fds(w);
    }
    workers.clear();

    // Quarantined points enter the report as explicit placeholder
    // records (status "quarantined" + the recorded error) — listed, not
    // silently dropped. A real record beats its own placeholder inside
    // merge_shard_streams (the worker may have died after the append).
    std::vector<point_record> extras;
    for (const auto& [idx, err] : quarantine_errors) {
        point_record rec;
        rec.point = spec.grid.point(idx);
        rec.index = idx;
        rec.status = point_status::quarantined;
        rec.error = err;
        extras.push_back(std::move(rec));
    }
    const shard_file_listing final_files = list_shard_files(opt.workdir);
    stream_merge_result merged;
    try {
        merged = merge_shard_streams(spec, final_files.paths, extras, opt.out);
    } catch (const error& e) {
        // Every acknowledged record is durable in the shard streams; a
        // failed merge (out path vanished, disk full, ...) must not read
        // as lost compute.
        throw analysis_error(std::string(e.what())
                             + "; all completed point records are safe in '" + opt.workdir
                             + "' — fix the report path and re-run with --resume to "
                               "merge without recomputing");
    }

    exec_summary summary;
    summary.total = total;
    summary.completed = total - merged.extras_used.size();
    for (const std::size_t idx : merged.extras_used)
        summary.quarantined.emplace_back(idx, quarantine_errors.at(idx));
    {
        json_value ev = json_value::object();
        ev.set("ev", json_value::str("complete"));
        ev.set("completed", json_value::number(summary.completed));
        ev.set("quarantined", json_value::number(summary.quarantined.size()));
        journal.append(ev);
    }
    return summary;
}

} // namespace acstab::farm
