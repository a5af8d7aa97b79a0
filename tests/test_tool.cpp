// CLI option parsing and ASCII plotting.
#include <gtest/gtest.h>

#include "common/error.h"
#include "core/ascii_plot.h"
#include "tool/options.h"

namespace {

using namespace acstab;
using namespace acstab::tool;

std::vector<char*> argv_of(std::initializer_list<const char*> args)
{
    static std::vector<std::string> storage;
    storage.assign(args.begin(), args.end());
    std::vector<char*> out;
    for (auto& s : storage)
        out.push_back(s.data());
    return out;
}

TEST(cli_options, defaults)
{
    auto args = argv_of({});
    const cli_options opt = parse_cli_options(0, args.data());
    EXPECT_TRUE(opt.node.empty());
    EXPECT_DOUBLE_EQ(opt.fstart, 1e3);
    EXPECT_DOUBLE_EQ(opt.fstop, 1e9);
    EXPECT_EQ(opt.ppd, 50u);
    EXPECT_FALSE(opt.csv);
}

TEST(cli_options, full_set)
{
    auto args = argv_of({"--node", "out", "--fstart", "10k", "--fstop", "1g", "--ppd", "25",
                         "--tstop", "5u", "--dt", "1n", "--threads", "4", "--csv",
                         "--annotate", "--all", "--probe", "vp"});
    const cli_options opt = parse_cli_options(static_cast<int>(args.size()), args.data());
    EXPECT_EQ(opt.node, "out");
    EXPECT_DOUBLE_EQ(opt.fstart, 1e4);
    EXPECT_DOUBLE_EQ(opt.fstop, 1e9);
    EXPECT_EQ(opt.ppd, 25u);
    EXPECT_DOUBLE_EQ(opt.tstop, 5e-6);
    EXPECT_DOUBLE_EQ(opt.dt, 1e-9);
    EXPECT_EQ(opt.threads, 4u);
    EXPECT_TRUE(opt.csv);
    EXPECT_TRUE(opt.annotate);
    EXPECT_TRUE(opt.all_nodes);
    EXPECT_EQ(opt.probe, "vp");
}

TEST(cli_options, errors)
{
    auto missing = argv_of({"--node"});
    EXPECT_THROW(parse_cli_options(1, missing.data()), analysis_error);
    auto unknown = argv_of({"--wat", "1"});
    EXPECT_THROW(parse_cli_options(2, unknown.data()), analysis_error);
    auto bad_num = argv_of({"--fstart", "abc"});
    EXPECT_THROW(parse_cli_options(2, bad_num.data()), parse_error);
    // Bare tokens stay errors unless a command opts into positionals
    // (farm merge's shard files).
    auto stray = argv_of({"-node", "vout"});
    EXPECT_THROW(parse_cli_options(2, stray.data()), analysis_error);
    const cli_options opt = parse_cli_options(2, stray.data(), /*allow_positionals=*/true);
    ASSERT_EQ(opt.positionals.size(), 2u);
    EXPECT_EQ(opt.positionals[0], "-node");

    // Count flags take whole numbers >= 0: a negative, fractional or
    // out-of-range value is refused with an error naming the flag rather
    // than cast to size_t.
    for (const char* flag : {"--ppd", "--threads", "--anchors-per-decade", "--size", "--workers",
                             "--retries", "--max-concurrent", "--queue-depth", "--max-frame",
                             "--worker-id"})
        for (const char* value : {"-5", "-1", "2.5", "1e30"}) {
            auto bad = argv_of({flag, value});
            try {
                (void)parse_cli_options(2, bad.data());
                ADD_FAILURE() << flag << " " << value << " was accepted";
            } catch (const analysis_error& e) {
                EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
            }
        }
    // --fit-tol is bounded by the adaptive sweep's accuracy contract.
    for (const char* value : {"0", "-1e-6", "0.1", "10"}) {
        auto bad = argv_of({"--fit-tol", value});
        try {
            (void)parse_cli_options(2, bad.data());
            ADD_FAILURE() << "--fit-tol " << value << " was accepted";
        } catch (const analysis_error& e) {
            EXPECT_NE(std::string(e.what()).find("--fit-tol"), std::string::npos) << e.what();
        }
    }
    auto at_bound = argv_of({"--fit-tol", "1e-2"});
    EXPECT_DOUBLE_EQ(parse_cli_options(2, at_bound.data()).fit_tol, 1e-2);

    // Zero keeps its meaning where it has one (--threads 0 = all cores).
    auto zero_threads = argv_of({"--threads", "0", "--ppd", "20"});
    const cli_options zopt = parse_cli_options(4, zero_threads.data());
    EXPECT_EQ(zopt.threads, 0u);
    EXPECT_EQ(zopt.ppd, 20u);

    // The retired solver flags are unknown options.
    for (const char* flag :
         {"--order", "--no-simd", "--warm", "--no-supernodal", "--warm-pipeline", "--oneshot"}) {
        auto retired = argv_of({flag});
        EXPECT_THROW(parse_cli_options(1, retired.data()), analysis_error) << flag;
    }
}

TEST(cli_options, farm_grid_specs)
{
    EXPECT_EQ(parse_value_list("1k,2k,3k"),
              (std::vector<real>{1e3, 2e3, 3e3}));
    const core::corner_def corner = parse_corner_spec("fast:rval=0.9k,cval=0.8p");
    EXPECT_EQ(corner.name, "fast");
    EXPECT_DOUBLE_EQ(corner.overrides.at("rval"), 900.0);
    EXPECT_DOUBLE_EQ(corner.overrides.at("cval"), 0.8e-12);
    EXPECT_TRUE(parse_corner_spec("nominal").overrides.empty());
    const core::param_axis axis = parse_param_axis("vdd=2.5,3.3");
    EXPECT_EQ(axis.name, "vdd");
    ASSERT_EQ(axis.values.size(), 2u);
    const shard_spec sh = parse_shard_spec("2/8");
    EXPECT_EQ(sh.index, 1u);
    EXPECT_EQ(sh.count, 8u);
    EXPECT_THROW((void)parse_shard_spec("0/4"), analysis_error);
    EXPECT_THROW((void)parse_shard_spec("5/4"), analysis_error);
    EXPECT_THROW((void)parse_corner_spec(":r=1"), analysis_error);
    EXPECT_THROW((void)parse_param_axis("novalues="), analysis_error);
}

TEST(cli_options, sweep_point_count)
{
    EXPECT_EQ(sweep_point_count(1e3, 1e6, 10), 31u);
    EXPECT_EQ(sweep_point_count(1e3, 1e4, 40), 41u);
    EXPECT_THROW((void)sweep_point_count(1e6, 1e3, 10), analysis_error);
}

TEST(ascii_plot, renders_extremes_and_title)
{
    std::vector<real> x{1.0, 10.0, 100.0, 1000.0};
    std::vector<real> y{0.0, 5.0, -5.0, 0.0};
    core::ascii_plot_options opt;
    opt.title = "my plot";
    const std::string s = core::ascii_plot(x, y, opt);
    EXPECT_NE(s.find("my plot"), std::string::npos);
    EXPECT_NE(s.find('*'), std::string::npos);
    EXPECT_NE(s.find("5"), std::string::npos);
    EXPECT_NE(s.find("-5"), std::string::npos);
}

TEST(ascii_plot, linear_axis_and_errors)
{
    std::vector<real> x{0.0, 1.0, 2.0};
    std::vector<real> y{1.0, 1.0, 1.0}; // flat series must not divide by 0
    core::ascii_plot_options opt;
    opt.log_x = false;
    EXPECT_NO_THROW((void)core::ascii_plot(x, y, opt));

    std::vector<real> neg{-1.0, 1.0, 2.0};
    core::ascii_plot_options logopt;
    EXPECT_THROW((void)core::ascii_plot(neg, y, logopt), analysis_error);
    std::vector<real> one{1.0};
    EXPECT_THROW((void)core::ascii_plot(one, one, opt), analysis_error);
}

} // namespace
