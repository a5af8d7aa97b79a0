// `acstab serve`: protocol frame parsing/building, and end-to-end
// robustness of the campaign service over a unix socket — streaming,
// byte-identical reports, malformed/oversized frames, overload shedding,
// cancellation, deadlines, client disconnects and graceful drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.h"
#include "farm/campaign.h"
#include "farm/executor.h"
#include "farm/json.h"
#include "farm_report_oracle.h"
#include "serve/protocol.h"
#include "serve/server.h"

#ifndef ACSTAB_TOOL_PATH
#define ACSTAB_TOOL_PATH ""
#endif

namespace {

using namespace acstab;
using farm::json_value;

constexpr const char* tank_netlist = R"(* parameterized RLC tank
.param rval=397.887 cval=1n
r1 tank 0 {rval}
l1 tank 0 25.3303u
c1 tank 0 {cval}
.stability tank 1e4 1e8 40
.end
)";

[[nodiscard]] std::string tank_netlist_path()
{
    static const std::string path = [] {
        const std::string p = "test_serve_tank.sp";
        std::ofstream out(p, std::ios::binary);
        out << tank_netlist;
        return p;
    }();
    return path;
}

[[nodiscard]] farm::campaign_spec small_campaign()
{
    farm::campaign_spec spec;
    spec.netlist = tank_netlist_path();
    spec.node = "tank";
    spec.fstart = 1e4;
    spec.fstop = 1e8;
    spec.points_per_decade = 40;
    spec.grid.temps = {0.0, 50.0};
    spec.grid.axes = {{"cval", {0.8e-9, 1.2e-9}}};
    return spec;
}

[[nodiscard]] std::string submit_line(const std::string& id,
                                      const farm::campaign_spec& spec,
                                      const std::string& extra = "")
{
    return "{\"op\":\"submit\",\"id\":\"" + id + "\",\"plan\":" + to_json(spec).dump()
        + extra + "}\n";
}

struct fault_env {
    explicit fault_env(const std::string& directives)
    {
        ::setenv("ACSTAB_FAULT_INJECT", directives.c_str(), 1);
    }
    ~fault_env() { ::unsetenv("ACSTAB_FAULT_INJECT"); }
};

/// Server under test: run_server on its own thread, scratch dirs wiped,
/// shutdown flag + join on destruction (so a failing test cannot hang
/// the suite with a live server).
struct serve_fixture {
    serve::serve_options opt;
    std::atomic<int> shutdown_flag{0};
    serve::serve_summary summary;
    std::thread thread;
    bool joined = false;

    explicit serve_fixture(const std::string& name)
    {
        opt.socket_path = "test_serve_" + name + ".sock";
        opt.root_dir = "test_serve_" + name + ".work";
        opt.tool_path = ACSTAB_TOOL_PATH;
        opt.workers = 2;
        opt.verbose = false;
        opt.backoff_s = 0.02;
        opt.shutdown = &shutdown_flag;
        std::filesystem::remove_all(opt.root_dir);
        std::filesystem::remove(opt.socket_path);
    }

    void start()
    {
        thread = std::thread([this] { summary = serve::run_server(opt); });
        // The socket appears once the listener is bound.
        for (int i = 0; i < 500; ++i) {
            if (::access(opt.socket_path.c_str(), F_OK) == 0)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        FAIL() << "server never bound " << opt.socket_path;
    }

    void stop(int level = 1)
    {
        if (joined)
            return;
        shutdown_flag = level;
        thread.join();
        joined = true;
    }

    ~serve_fixture()
    {
        if (!joined && thread.joinable()) {
            shutdown_flag = 2;
            thread.join();
        }
    }
};

/// Blocking line-oriented test client on the fixture's unix socket.
struct client {
    int fd = -1;
    std::string buf;

    explicit client(const serve_fixture& fx)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, fx.opt.socket_path.c_str(),
                    fx.opt.socket_path.size() + 1);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
            throw std::runtime_error("connect: " + std::string(std::strerror(errno)));
    }

    ~client()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void send(const std::string& text) const
    {
        ASSERT_EQ(::send(fd, text.data(), text.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(text.size()));
    }

    /// Next reply line, or nullopt on timeout/EOF.
    [[nodiscard]] std::optional<std::string> read_line(double timeout_s = 30.0)
    {
        const auto deadline = std::chrono::steady_clock::now()
            + std::chrono::milliseconds(static_cast<long>(timeout_s * 1e3));
        while (true) {
            const std::size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                return line;
            }
            const auto left = deadline - std::chrono::steady_clock::now();
            if (left.count() <= 0)
                return std::nullopt;
            pollfd p{fd, POLLIN, 0};
            const int rc = ::poll(
                &p, 1,
                static_cast<int>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(left).count()));
            if (rc <= 0)
                continue;
            char chunk[65536];
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                return std::nullopt; // EOF or error
            buf.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /// Read frames until one matches `frame` kind (skipping others);
    /// nullopt on timeout.
    [[nodiscard]] std::optional<json_value> read_frame(const std::string& frame,
                                                       double timeout_s = 60.0)
    {
        while (true) {
            const std::optional<std::string> line = read_line(timeout_s);
            if (!line)
                return std::nullopt;
            json_value doc = json_value::parse(*line);
            if (doc.at("frame").as_string() == frame)
                return doc;
        }
    }
};

// --- protocol units --------------------------------------------------------

TEST(serve_protocol, parses_the_three_request_ops)
{
    const serve::request_frame ping = serve::parse_request_frame("{\"op\":\"ping\"}");
    EXPECT_EQ(ping.kind, serve::request_frame::op::ping);

    const serve::request_frame cancel
        = serve::parse_request_frame("{\"op\":\"cancel\",\"id\":\"job-1\"}");
    EXPECT_EQ(cancel.kind, serve::request_frame::op::cancel);
    EXPECT_EQ(cancel.id, "job-1");

    const serve::request_frame submit = serve::parse_request_frame(
        "{\"op\":\"submit\",\"id\":\"j\",\"plan\":{},\"deadline_s\":2.5,\"workers\":3}");
    EXPECT_EQ(submit.kind, serve::request_frame::op::submit);
    EXPECT_TRUE(submit.has_deadline);
    EXPECT_DOUBLE_EQ(submit.deadline_s, 2.5);
    EXPECT_TRUE(submit.has_workers);
    EXPECT_EQ(submit.workers, 3u);
}

TEST(serve_protocol, rejects_malformed_requests_with_specific_errors)
{
    EXPECT_THROW((void)serve::parse_request_frame("[]"), analysis_error);
    EXPECT_THROW((void)serve::parse_request_frame("{\"op\":\"dance\",\"id\":\"x\"}"),
                 analysis_error);
    EXPECT_THROW((void)serve::parse_request_frame("{\"op\":\"submit\",\"plan\":{}}"),
                 analysis_error);
    EXPECT_THROW((void)serve::parse_request_frame("{\"op\":\"cancel\",\"id\":\"\"}"),
                 analysis_error);
    EXPECT_THROW((void)serve::parse_request_frame(
                     "{\"op\":\"submit\",\"id\":\"x\",\"plan\":{},\"deadline_s\":-1}"),
                 analysis_error);
    EXPECT_THROW((void)serve::parse_request_frame("{\"op\":"), parse_error);
}

TEST(serve_protocol, parse_offset_extraction)
{
    EXPECT_EQ(serve::parse_offset_of("parse: json: bad literal at offset 17"), 17);
    EXPECT_EQ(serve::parse_offset_of("no offset here"), -1);
    EXPECT_EQ(serve::parse_offset_of("at offset "), -1);
}

TEST(serve_protocol, reply_frames_are_canonical_json_lines)
{
    EXPECT_EQ(serve::ack_frame("a\"b", 4, 1, "d"),
              "{\"frame\":\"ack\",\"id\":\"a\\\"b\",\"points\":4,\"queued\":1,"
              "\"dir\":\"d\"}\n");
    EXPECT_EQ(serve::point_frame("j", 2, "{\"x\":1}"),
              "{\"frame\":\"point\",\"id\":\"j\",\"index\":2,\"record\":{\"x\":1}}\n");
    EXPECT_EQ(serve::error_frame("", "bad at offset 3", 3),
              "{\"frame\":\"error\",\"error\":\"bad at offset 3\",\"offset\":3}\n");
    EXPECT_EQ(serve::overloaded_frame("j", 2, 4),
              "{\"frame\":\"overloaded\",\"id\":\"j\",\"running\":2,\"queued\":4}\n");
    EXPECT_EQ(serve::pong_frame(), "{\"frame\":\"pong\"}\n");
    // Every reply frame re-parses in the same dialect.
    (void)json_value::parse("{\"frame\":\"error\",\"error\":\"x\"}");
}

// --- end-to-end over a unix socket -----------------------------------------

TEST(serve_e2e, streams_points_and_delivers_byte_identical_report)
{
    const farm::campaign_spec spec = small_campaign();
    serve_fixture fx("full");
    fx.start();
    client c(fx);
    c.send(submit_line("job", spec));

    const std::optional<json_value> ack = c.read_frame("ack");
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->at("id").as_string(), "job");
    EXPECT_EQ(ack->at("points").as_index(), 4u);
    const std::string req_dir = ack->at("dir").as_string();

    std::size_t points_seen = 0;
    json_value report;
    while (true) {
        const std::optional<std::string> line = c.read_line(120.0);
        ASSERT_TRUE(line.has_value()) << "timed out waiting for frames";
        const json_value doc = json_value::parse(*line);
        const std::string& frame = doc.at("frame").as_string();
        if (frame == "point") {
            ++points_seen;
            EXPECT_EQ(doc.at("record").at("index").as_index(),
                      doc.at("index").as_index());
        } else if (frame == "report") {
            report = doc;
            break;
        } else {
            FAIL() << "unexpected frame: " << *line;
        }
    }
    EXPECT_EQ(points_seen, 4u);
    EXPECT_EQ(report.at("completed").as_index(), 4u);
    EXPECT_EQ(report.at("quarantined").as_index(), 0u);

    // The served report is byte-identical to the single-process path:
    // both the spliced frame payload and the on-disk report file.
    const std::string truth = farm_test::expected_report_bytes(spec);
    EXPECT_EQ(report.at("report").dump() + "\n", truth);
    EXPECT_EQ(farm_test::read_file_bytes(req_dir + "/report.json"), truth);

    fx.stop();
    EXPECT_TRUE(fx.summary.drained);
    EXPECT_EQ(fx.summary.accepted, 1u);
    EXPECT_EQ(fx.summary.completed, 1u);
    EXPECT_EQ(fx.summary.failed, 0u);
}

TEST(serve_e2e, submit_with_out_of_bound_fit_tol_gets_an_error_naming_it)
{
    farm::campaign_spec spec = small_campaign();
    spec.adaptive = true;
    spec.fit_tol = 10.0;
    serve_fixture fx("fittol");
    fx.start();
    client c(fx);
    c.send(submit_line("bad", spec));
    const std::optional<json_value> err = c.read_frame("error", 10.0);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->at("error").as_string().find("fit_tol"), std::string::npos)
        << err->at("error").as_string();
    fx.stop();
    EXPECT_EQ(fx.summary.accepted, 0u);
}

TEST(serve_e2e, malformed_oversized_and_overdeep_frames_get_structured_errors)
{
    serve_fixture fx("proto");
    fx.opt.max_frame_bytes = 512;
    fx.start();
    client c(fx);

    // Malformed JSON: error frame with the parser's byte offset.
    c.send("{\"op\": pang}\n");
    const std::optional<json_value> bad = c.read_frame("error", 10.0);
    ASSERT_TRUE(bad.has_value());
    EXPECT_GE(bad->at("offset").as_number(), 0.0);

    // Over-deep nesting: rejected structurally, never a crash.
    std::string deep = "{\"op\":\"submit\",\"id\":\"d\",\"plan\":";
    for (int i = 0; i < 200; ++i)
        deep += "[";
    for (int i = 0; i < 200; ++i)
        deep += "]";
    c.send(deep + "}\n");
    const std::optional<json_value> toodeep = c.read_frame("error", 10.0);
    ASSERT_TRUE(toodeep.has_value());
    EXPECT_NE(toodeep->at("error").as_string().find("deep"), std::string::npos)
        << toodeep->at("error").as_string();

    // Oversized frame without a newline: one error naming the limit, the
    // overflowing bytes are discarded up to the next newline.
    c.send(std::string(2000, 'x'));
    const std::optional<json_value> toolong = c.read_frame("error", 10.0);
    ASSERT_TRUE(toolong.has_value());
    EXPECT_NE(toolong->at("error").as_string().find("512"), std::string::npos);
    c.send("tail-of-oversized-frame\n");

    // The connection survived all three: ping still answers.
    c.send("{\"op\":\"ping\"}\n");
    const std::optional<json_value> pong = c.read_frame("pong", 10.0);
    EXPECT_TRUE(pong.has_value());

    fx.stop();
    EXPECT_EQ(fx.summary.protocol_errors, 3u);
    EXPECT_EQ(fx.summary.accepted, 0u);
}

TEST(serve_e2e, overload_sheds_with_explicit_reply)
{
    const farm::campaign_spec spec = small_campaign();
    serve_fixture fx("overload");
    fx.opt.max_concurrent = 1;
    fx.opt.queue_depth = 0;
    fx.start();
    client c(fx);

    c.send(submit_line("first", spec));
    const std::optional<json_value> ack = c.read_frame("ack");
    ASSERT_TRUE(ack.has_value());

    // Second submit while the first runs: explicit shed, not a hang.
    c.send(submit_line("second", spec));
    const std::optional<json_value> shed = c.read_frame("overloaded", 30.0);
    ASSERT_TRUE(shed.has_value());
    EXPECT_EQ(shed->at("id").as_string(), "second");
    EXPECT_EQ(shed->at("running").as_index(), 1u);

    // The first request is unharmed by the shed.
    const std::optional<json_value> report = c.read_frame("report", 120.0);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->at("id").as_string(), "first");

    fx.stop();
    EXPECT_EQ(fx.summary.shed, 1u);
    EXPECT_EQ(fx.summary.completed, 1u);
}

TEST(serve_e2e, cancel_stops_request_and_leaves_it_resumable)
{
    const farm::campaign_spec spec = small_campaign();
    serve_fixture fx("cancel");
    // Point 2 stalls forever (every attempt): without the cancel the
    // request would sit in the 300s point timeout.
    const fault_env env("stall:2:600:always");
    fx.start();
    client c(fx);
    c.send(submit_line("job", spec));
    const std::optional<json_value> ack = c.read_frame("ack");
    ASSERT_TRUE(ack.has_value());

    // Wait for at least one streamed point so the campaign is mid-flight.
    const std::optional<json_value> point = c.read_frame("point", 60.0);
    ASSERT_TRUE(point.has_value());
    c.send("{\"op\":\"cancel\",\"id\":\"job\"}\n");

    const std::optional<json_value> stopped = c.read_frame("error", 60.0);
    ASSERT_TRUE(stopped.has_value());
    const std::string& msg = stopped->at("error").as_string();
    EXPECT_NE(msg.find("cancelled"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--resume"), std::string::npos) << msg;

    // The server is fine; the connection is fine.
    c.send("{\"op\":\"ping\"}\n");
    EXPECT_TRUE(c.read_frame("pong", 10.0).has_value());

    fx.stop();
    EXPECT_EQ(fx.summary.cancelled, 1u);
}

TEST(serve_e2e, deadline_checkpoints_an_overrunning_request)
{
    const farm::campaign_spec spec = small_campaign();
    serve_fixture fx("deadline");
    const fault_env env("stall:0:600:always"); // first point never finishes
    fx.start();
    client c(fx);
    c.send(submit_line("slow", spec, ",\"deadline_s\":2"));
    ASSERT_TRUE(c.read_frame("ack").has_value());

    const std::optional<json_value> stopped = c.read_frame("error", 60.0);
    ASSERT_TRUE(stopped.has_value());
    EXPECT_NE(stopped->at("error").as_string().find("deadline_s exceeded"),
              std::string::npos)
        << stopped->at("error").as_string();

    fx.stop();
    EXPECT_EQ(fx.summary.cancelled, 1u);
}

TEST(serve_e2e, client_disconnect_cancels_only_its_request)
{
    const farm::campaign_spec spec = small_campaign();
    serve_fixture fx("hangup");
    const fault_env env("stall:2:600:always");
    fx.start();
    {
        client doomed(fx);
        doomed.send(submit_line("orphan", spec));
        ASSERT_TRUE(doomed.read_frame("ack").has_value());
        ASSERT_TRUE(doomed.read_frame("point", 60.0).has_value());
        // Destructor closes the socket: the server must notice, cancel
        // the request and reap its workers.
    }
    client other(fx);
    other.send("{\"op\":\"ping\"}\n");
    EXPECT_TRUE(other.read_frame("pong", 10.0).has_value());

    // stop() drains: if the orphaned request were still running its
    // stalled worker, this join would block on the 600s stall.
    fx.stop();
    EXPECT_EQ(fx.summary.cancelled, 1u);
    EXPECT_EQ(fx.summary.completed, 0u);
}

TEST(serve_e2e, drain_checkpoints_in_flight_requests_after_grace)
{
    const farm::campaign_spec spec = small_campaign();
    serve_fixture fx("drain");
    fx.opt.drain_grace_s = 1.0;
    const fault_env env("stall:2:600:always");
    fx.start();
    client c(fx);
    c.send(submit_line("job", spec));
    ASSERT_TRUE(c.read_frame("ack").has_value());
    ASSERT_TRUE(c.read_frame("point", 60.0).has_value());

    fx.shutdown_flag = 1; // SIGTERM equivalent: drain
    // Give the 200ms poll loop time to notice the flag, then check that
    // submits are refused during the drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    c.send(submit_line("late", spec));
    const std::optional<json_value> refused = c.read_frame("error", 10.0);
    ASSERT_TRUE(refused.has_value());
    EXPECT_NE(refused->at("error").as_string().find("draining"), std::string::npos);

    // After drain_grace_s the stalled request is checkpointed, its error
    // frame names the resume path, and run_server returns cleanly.
    const std::optional<json_value> checkpointed = c.read_frame("error", 60.0);
    ASSERT_TRUE(checkpointed.has_value());
    EXPECT_NE(checkpointed->at("error").as_string().find("draining"),
              std::string::npos);
    EXPECT_NE(checkpointed->at("error").as_string().find("--resume"),
              std::string::npos);

    fx.stop();
    EXPECT_TRUE(fx.summary.drained);
    EXPECT_EQ(fx.summary.cancelled, 1u);
}

TEST(serve_e2e, injected_client_drop_does_not_hurt_the_server)
{
    const farm::campaign_spec spec = small_campaign();
    serve_fixture fx("chaosdrop");
    // Connection serial 1 is hard-closed by the server right after its
    // first streamed point frame.
    const fault_env env("client-drop:1");
    fx.start();
    client dropped(fx);
    dropped.send(submit_line("victim", spec));
    ASSERT_TRUE(dropped.read_frame("ack").has_value());
    // The drop closes the socket mid-stream: read_line hits EOF.
    while (dropped.read_line(120.0).has_value()) { }

    client other(fx);
    other.send("{\"op\":\"ping\"}\n");
    EXPECT_TRUE(other.read_frame("pong", 10.0).has_value());

    fx.stop();
    EXPECT_EQ(fx.summary.accepted, 1u);
}

} // namespace
