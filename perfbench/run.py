#!/usr/bin/env python3
"""End-to-end benchmark of the acstab tool (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --steady RUNS [--seconds S] [--trace 0|1]

Run it from the root of a source checkout. It builds the acstab tool and
the pbtool helper from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), generates the workload's inputs from the seed,
and measures the real `acstab` binary for --seconds seconds. The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
--steady runs the workload RUNS times with seeds 1..RUNS and reports
each metric's median, quartiles and spread against BENCHMARK.json.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

# Set-up is repeated and its median reported, so a one-off stall (page
# cache, scheduler) does not read as a set-up regression.
SETUP_REPEATS = 3
# The traced run must account for its root (children's self times) and
# match the untraced wall time within the loosest bound in BENCHMARK.json.
COVERAGE_TOL = 0.25


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------ building

def build(root):
    """Configure once, then (re)build acstab and pbtool; returns their paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(root, target, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "acstab", "pbtool", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "acstab", "acstab"), os.path.join(bdir, "pbtool"), bdir


def host_facts(pbtool, bdir):
    facts = json.loads(subprocess.run([pbtool, "host"], check=True, capture_output=True,
                                      text=True).stdout)
    facts["nproc"] = len(os.sched_getaffinity(0))
    cache = os.path.join(bdir, "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                facts["compiler_path"] = line.split("=", 1)[1].strip()
    return facts


# ----------------------------------------------------------- processes

def run_measured(cmd, cwd):
    """Run one command to completion: wall time, user+sys CPU (children
    included), peak RSS and its stdout."""
    with open(os.path.join(cwd, "stderr.log"), "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0,
            "out": out, "rc": p.returncode}


def checked(cmd, cwd):
    r = subprocess.run(cmd, cwd=cwd, capture_output=True)
    if r.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd), r.returncode,
                                                   r.stderr.decode(errors="replace")))
    return r


def pbtool_json(env, mode, cfg, cwd, name):
    cfg_path = os.path.join(cwd, name + ".cfg.json")
    out_path = os.path.join(cwd, name + ".json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    checked([env["pbtool"], mode, cfg_path, out_path], cwd)
    with open(out_path) as f:
        return json.load(f)


def proc_cpu_s(pid):
    """User+sys CPU of a live process plus its reaped children."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------- workloads

class MeshStability:
    """`acstab stability` on a seeded loop mesh: all nodes or one node."""

    def __init__(self, name, unknowns, cells, followers, centre_tank, ppd, threads, all_nodes):
        self.name = name
        self.unknowns, self.cells, self.followers = unknowns, cells, followers
        self.centre_tank = centre_tank
        self.band = {"fstart": 1e4, "fstop": 1e9, "ppd": ppd}
        self.threads = threads
        self.all_nodes = all_nodes

    def setup(self, env, d, seed):
        text, info = gen.loopmesh(seed, self.unknowns, self.cells, self.followers,
                                  self.centre_tank)
        with open(os.path.join(d, "mesh.sp"), "w") as f:
            f.write(text)
        cfg = dict(self.band, netlist="mesh.sp", threads=self.threads)
        if self.all_nodes:
            rng = random.Random("samples:%d" % seed)
            k = info["k"]
            watch = [c["watch"] for c in info["cells"]]
            mesh = ["n%d_%d" % (rng.randrange(k), rng.randrange(k)) for _ in range(4)]
            cfg.update(nodes=watch, sample_nodes=watch + mesh,
                       sample_freqs=[10 ** rng.uniform(4, 9) for _ in range(3)])
            node = ""
        else:
            node = info["centre"]
            cfg.update(nodes=[node])
        ref = pbtool_json(env, "ref-stability", cfg, d, "reference")
        return {"dir": d, "ref": ref, "node": node, "grid": ref["grid_points"]}

    def command(self, env, ctx):
        b = self.band
        cmd = [env["acstab"], "stability", "mesh.sp", "--csv", "--threads", str(self.threads),
               "--fstart", repr(b["fstart"]), "--fstop", repr(b["fstop"]),
               "--ppd", str(b["ppd"])]
        return cmd + (["--all"] if self.all_nodes else ["--node", ctx["node"]])

    def check(self, ctx, text):
        if self.all_nodes:
            return checks.check_allnodes(text, ctx["ref"])
        return checks.check_node(text, ctx["ref"], ctx["node"])

    def points(self, ctx, text):
        """(node, frequency) results delivered by one operation."""
        if not self.all_nodes:
            return ctx["grid"]
        return ctx["grid"] * len(checks.parse_stability_csv(text))

    def trace_cfg(self, env, ctx):
        return dict(self.band, kind="stability", netlist="mesh.sp", threads=self.threads,
                    node=ctx["node"])

    def trace_check(self, ctx, text):
        return self.check(ctx, text)


class ImpedancePoles:
    """`acstab impedance <loopmesh> --node <port> --adaptive`."""

    name = "impedance_poles"
    band = {"fstart": 1e4, "fstop": 1e9, "ppd": 20}

    def setup(self, env, d, seed):
        text, info = gen.loopmesh(seed, 700, 4)
        with open(os.path.join(d, "mesh.sp"), "w") as f:
            f.write(text)
        # The port is a tank cell's mesh node: the tank (no source) and the
        # node's own capacitor form the load side, the sourced mesh the
        # source side.
        port = next(c["site"] for c in info["cells"] if c["kind"] == "tank")
        ref = pbtool_json(env, "ref-impedance", dict(self.band, netlist="mesh.sp", node=port),
                          d, "reference")
        return {"dir": d, "ref": ref, "node": port}

    def command(self, env, ctx):
        b = self.band
        return [env["acstab"], "impedance", "mesh.sp", "--node", ctx["node"], "--adaptive",
                "--fstart", repr(b["fstart"]), "--fstop", repr(b["fstop"]),
                "--ppd", str(b["ppd"])]

    def check(self, ctx, text):
        return checks.check_impedance(text, ctx["ref"])

    def points(self, ctx, text):
        """Points of the requested grid (the adaptive output grid also
        holds the solved points, whose number varies with the seed)."""
        b = self.band
        return int(round(math.log10(b["fstop"] / b["fstart"]) * b["ppd"])) + 1

    def trace_cfg(self, env, ctx):
        return dict(self.band, kind="impedance", netlist="mesh.sp", node=ctx["node"], threads=1)

    def trace_check(self, ctx, text):
        return self.check(ctx, text)


class ServeDaemon:
    """One `acstab serve --stdio` daemon and its single client connection."""

    def __init__(self, acstab, d, workers):
        self.d = d
        self.err = open(os.path.join(d, "serve.stderr.log"), "wb")
        self.proc = subprocess.Popen(
            [acstab, "serve", "--stdio", "--workers", str(workers), "--dir", "serve.work",
             "--queue-depth", "1", "--max-concurrent", "1", "--quiet"],
            cwd=d, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err)
        self.rusage = None

    def send(self, obj_text):
        self.proc.stdin.write(obj_text.encode() + b"\n")
        self.proc.stdin.flush()

    def ping(self):
        self.send('{"op":"ping"}')
        line = self.proc.stdout.readline()
        if not line.startswith(b'{"frame":"pong"'):
            raise RuntimeError("serve: no pong, got %r" % line[:200])

    def request(self, rid, plan_text):
        """Submit one plan and read frames until its terminal frame."""
        t0 = time.perf_counter()
        self.send('{"op":"submit","id":"%s","plan":%s}' % (rid, plan_text))
        ack = first = None
        points = 0
        req_dir = None
        while True:
            line = self.proc.stdout.readline()
            now = time.perf_counter() - t0
            if not line:
                raise RuntimeError("serve: daemon closed its output")
            if line.startswith(b'{"frame":"point"'):
                points += 1
                if first is None:
                    first = now
            elif line.startswith(b'{"frame":"ack"'):
                ack = now
                req_dir = json.loads(line)["dir"]
            elif line.startswith(b'{"frame":"report"'):
                wall = now
                break
            else:
                raise RuntimeError("serve: unexpected frame %r" % line[:200])
        if req_dir:
            shutil.rmtree(os.path.join(self.d, req_dir), ignore_errors=True)
        return {"wall": wall, "ack": ack, "first": wall if first is None else first,
                "points": points, "frame": line}

    def close(self):
        """EOF on stdin ends the stdio daemon; its rusage then covers the
        daemon and every worker it reaped."""
        if self.rusage is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            deadline = time.monotonic() + 20.0
            while True:
                pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
                if pid != 0:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.rusage = ru
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    _, status, self.rusage = os.wait4(self.proc.pid, 0)
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                time.sleep(0.01)
        self.proc.stdout.close()
        self.err.close()
        with open(os.path.join(self.d, "serve.stderr.log"), "rb") as f:
            return f.read().decode(errors="replace")


class CampaignServe:
    """A served campaign: stability and transient TEMP x .param plans,
    submitted alternately by one client with one request in flight."""

    name = "campaign_serve"
    workers = 2
    grids = {"stability": (12, 25), "transient": (10, 20)}

    def setup(self, env, d, seed):
        with open(os.path.join(d, "cell.sp"), "w") as f:
            f.write(gen.campaign_cell(seed))
        plans = []
        for kind, (temps, params) in sorted(self.grids.items()):
            plan = os.path.join(d, "plan_%s.json" % kind)
            checked([env["acstab"], "farm", "plan", "cell.sp", "--out", plan]
                    + gen.campaign_plan_args(seed, kind, temps, params), d)
            shard = os.path.join(d, "shard_%s.json" % kind)
            ref = os.path.join(d, "reference_%s.json" % kind)
            checked([env["acstab"], "farm", "run", plan, "--threads", str(self.workers),
                     "--out", shard], d)
            checked([env["acstab"], "farm", "merge", plan, shard, "--out", ref], d)
            with open(plan) as f:
                plan_text = f.read().strip()
            with open(ref, "rb") as f:
                plans.append({"kind": kind, "plan": plan, "plan_text": plan_text,
                              "reference_path": ref, "reference": f.read()})
        daemon = ServeDaemon(env["acstab"], d, self.workers)
        ctx = {"dir": d, "plans": plans, "daemon": daemon, "n": 0}
        try:
            daemon.ping()
            warm = self.request(ctx)
            if warm["problems"]:
                raise RuntimeError("serve warm-up: %s" % "; ".join(warm["problems"]))
        except BaseException:
            daemon.close()
            raise
        return ctx

    def request(self, ctx):
        plan = ctx["plans"][ctx["n"] % len(ctx["plans"])]
        ctx["n"] += 1
        r = ctx["daemon"].request("r%d" % ctx["n"], plan["plan_text"])
        r["problems"] = checks.check_report(r.pop("frame"), plan["reference"])
        r["kind"] = plan["kind"]
        return r

    def exec_op(self, env, ctx):
        """`acstab farm exec` of the next plan: the untraced counterpart of
        the replay's orchestrator run, without the daemon."""
        plan = ctx["plans"][ctx.setdefault("exec_n", 0) % len(ctx["plans"])]
        ctx["exec_n"] += 1
        d = os.path.join(ctx["dir"], "exec")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        r = run_measured([env["acstab"], "farm", "exec", plan["plan"], "--workers",
                          str(self.workers), "--dir", os.path.join(d, "work"), "--out",
                          os.path.join(d, "report.json"), "--quiet"], ctx["dir"])
        r["problems"] = ["exit code %d" % r["rc"]] if r["rc"] != 0 else []
        if not r["problems"]:
            with open(os.path.join(d, "report.json"), "rb") as f:
                if f.read() != plan["reference"]:
                    r["problems"].append("farm exec report differs from the single-process run")
        return r

    def trace_cfg(self, env, ctx):
        return {"kind": "campaign", "workers": self.workers, "tool": env["acstab"],
                "dir": os.path.join(ctx["dir"], "trace"),
                "plans": [{"plan": p["plan"], "reference": p["reference_path"]}
                          for p in ctx["plans"]]}

    def trace_check(self, ctx, text):
        return [] if text == "report-identical" else ["campaign replay: " + text]


WORKLOADS = {w.name: w for w in (
    MeshStability("allnodes_loopmesh", 1450, 9, 1, False, 6, 2, True),
    MeshStability("node_mesh8k", 8100, 6, 0, True, 10, 1, False),
    ImpedancePoles(),
    CampaignServe(),
)}


# ---------------------------------------------------------- measuring

def do_setup(env, w, run_dir, seed, repeats):
    """Set up `repeats` times from scratch; keep the last context."""
    times = []
    ctx = None
    for i in range(repeats):
        d = os.path.join(run_dir, "setup%d" % i)
        os.makedirs(d)
        if ctx is not None and "daemon" in ctx:
            ctx["daemon"].close()
        t0 = time.perf_counter()
        ctx = w.setup(env, d, seed)
        times.append(time.perf_counter() - t0)
    return ctx, times


def operate(env, w, ctx):
    """One operation of the workload, measured and checked."""
    if isinstance(w, CampaignServe):
        return w.request(ctx)
    r = run_measured(w.command(env, ctx), ctx["dir"])
    text = r["out"].decode(errors="replace")
    r["problems"] = (["exit code %d" % r["rc"]] if r["rc"] != 0 else []) + w.check(ctx, text)
    r["points"] = w.points(ctx, text) if r["rc"] == 0 else 0
    r["kind"] = w.name
    return r


def measure_ops(env, w, ctx, seconds):
    """Closed loop: the next operation starts when the previous ends."""
    ops = []
    t0 = time.perf_counter()
    while True:
        ops.append(operate(env, w, ctx))
        if ops[-1]["problems"]:
            log("%s: operation failed: %s" % (w.name, "; ".join(ops[-1]["problems"])))
        if time.perf_counter() - t0 >= seconds:
            break
    return ops, time.perf_counter() - t0


def end_to_end(env, w, ctx, seconds, setup_times):
    """Per-operation times are the run's fastest operation of each kind
    (campaign_serve alternates two plans), averaged over the kinds: on a
    shared host the CPU speed swings by tens of percent over seconds, and
    the least-disturbed operation is what repeats run to run (the median
    and p90 go to the detail line)."""
    serve = isinstance(w, CampaignServe)
    cpu0 = proc_cpu_s(ctx["daemon"].proc.pid) if serve else 0.0
    ops, elapsed = measure_ops(env, w, ctx, seconds)
    failed = sum(1 for o in ops if o["problems"])
    walls = [o["wall"] for o in ops]
    kinds = sorted({o["kind"] for o in ops})
    fastest = [min((o for o in ops if o["kind"] == k), key=lambda o: o["wall"]) for k in kinds]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.fmean(o["wall"] for o in fastest), "s"),
        "points_per_s": (sum(o["points"] for o in fastest) / sum(o["wall"] for o in fastest),
                         "1/s"),
        "ok_frac": ((len(ops) - failed) / len(ops), "ratio"),
    }
    if serve:
        # Per-request CPU from /proc ticks at 10 ms; the daemon's exit
        # rusage (daemon plus every reaped worker, microsecond precision)
        # over the measured requests keeps the digits.
        ctx["daemon"].close()
        ru = ctx["daemon"].rusage
        metrics["cpu_s"] = ((ru.ru_utime + ru.ru_stime - cpu0) / len(ops), "s")
        metrics["peak_rss_mb"] = (ru.ru_maxrss / 1024.0, "MB")
    else:
        metrics["cpu_s"] = (min(o["cpu"] for o in ops), "s")
        metrics["peak_rss_mb"] = (statistics.median(o["rss_mb"] for o in ops), "MB")
    detail = {"samples": len(ops), "elapsed_s": elapsed, "wall_s_median": statistics.median(walls),
              "wall_s_p90": spans.quantile(walls, 0.9), "setup_s_all": setup_times}
    return metrics, len(ops), failed, detail


def per_layer(env, w, ctx, seconds):
    """Traced replays in process (one pbtool call each), interleaved with
    the untraced command so that both see the same host conditions; the
    fastest of each anchors the overhead. On campaign_serve the replayed
    root is the orchestrator run, so its untraced counterpart is
    `acstab farm exec`, and the served request's extra time is the serve
    layer's overhead."""
    serve = isinstance(w, CampaignServe)
    cfg = w.trace_cfg(env, ctx)
    sp, calls, ops, execs, problems = [], [], [], [], []
    t0 = time.perf_counter()
    while True:
        cfg["rep"] = len(calls)
        tr = pbtool_json(env, "trace", cfg, ctx["dir"], "trace")
        base = len(sp)
        sp += [dict(s, parent=s["parent"] + base if s["parent"] >= 0 else -1)
               for s in tr["spans"]]
        calls.append(tr["counters"])
        for text in tr["outputs"]:
            problems += w.trace_check(ctx, text)
        if serve:
            execs.append(w.exec_op(env, ctx))
        ops.append(operate(env, w, ctx))
        if time.perf_counter() - t0 >= seconds:
            break
    reps = len(calls)
    failed_ops = sum(1 for o in ops + execs if o["problems"])
    wall = min(o["wall"] for o in (execs if serve else ops))

    rows = spans.request_breakdown(sp)
    fastest = min((r for r in rows if r["root_s"] > 0), key=lambda r: r["root_s"])

    def name_s(name):
        return spans.median_or_zero(r["by_name"][name] for r in rows if name in r["by_name"])

    def per_op(key):
        """A count made in every repetition: its mean."""
        return statistics.fmean(c.get(key, 0.0) for c in calls)

    def size(key):
        """A size recorded once (some only in repetition 0)."""
        return max(c.get(key, 0.0) for c in calls)

    m = {}
    for layer in spans.LAYERS:
        m[layer + ".self_s"] = (spans.median_or_zero(r["layer_self_s"][layer] for r in rows),
                                "s")
    for name in ("spice.parse", "spice.dc", "spice.tran", "engine.linearize", "engine.sweep",
                 "engine.adaptive", "numeric.symbolic", "core.plot", "core.report",
                 "analysis.poles", "analysis.impedance"):
        m[name + "_s"] = (name_s(name), "s")
    m["spice.dc_newton_iters"] = (per_op("spice.dc_newton_iters"), "count")
    m["spice.tran_solves"] = (per_op("spice.tran_solves"), "count")
    m["spice.tran_symbolic_builds"] = (per_op("spice.tran_symbolic_builds"), "count")
    m["engine.snapshot_nnz"] = (size("engine.snapshot_nnz"), "count")
    m["engine.factorizations"] = (per_op("engine.factorizations"), "count")
    m["engine.rhs_solves"] = (per_op("engine.rhs_solves"), "count")
    m["engine.adaptive_factorizations"] = (per_op("engine.adaptive_factorizations"), "count")
    m["engine.adaptive_model_order"] = (per_op("engine.adaptive_model_order"), "count")
    m["numeric.order_s"] = (spans.median_or_zero(spans.durations(sp, "numeric.order")), "s")
    m["numeric.lu_nnz"] = (size("numeric.lu_nnz"), "count")
    m["numeric.supernodes"] = (size("numeric.supernodes"), "count")
    m["numeric.refactor_ms"] = (
        1e3 * spans.median_or_zero(spans.durations(sp, "numeric.refactor")), "ms")
    m["numeric.solve_ms_per_rhs"] = (
        1e3 * spans.median_or_zero(spans.durations(sp, "numeric.solve"))
        / max(1.0, size("numeric.solve_batch_rhs")), "ms")
    m["core.loops_found"] = (size("core.loops_found"), "count")
    m["analysis.poles_found"] = (size("analysis.poles_found"), "count")

    # Farm layer: point times from the in-process point replay, exec and
    # merge from the orchestrator run and the stream re-merge.
    points = spans.durations(sp, "farm.point")
    exec_s = spans.durations(sp, "farm.exec")
    sums = [r.get("farm.point", 0.0) for r in spans.named_roots(sp, "farm.points")]
    overhead = [e - s / getattr(w, "workers", 1) for e, s in zip(exec_s, sums)]
    m["farm.point_s_p50"] = (spans.quantile(points, 0.5), "s")
    m["farm.point_s_p90"] = (spans.quantile(points, 0.9), "s")
    m["farm.exec_s"] = (spans.median_or_zero(exec_s), "s")
    m["farm.overhead_s"] = (spans.median_or_zero(overhead), "s")
    m["farm.merge_s"] = (spans.median_or_zero(spans.durations(sp, "farm.merge")), "s")
    m["farm.retries"] = (per_op("farm.retries"), "count")
    m["farm.quarantined"] = (per_op("farm.quarantined"), "count")

    shed = 0.0
    if serve:
        m["serve.ack_s"] = (statistics.median(o["ack"] for o in ops), "s")
        m["serve.first_point_s"] = (statistics.median(o["first"] for o in ops), "s")
        m["serve.overhead_s"] = (min(o["wall"] for o in ops) - wall, "s")
        summary = re.search(r"(\d+) shed", ctx["daemon"].close())
        shed = float(summary.group(1)) if summary else 0.0
    else:
        m["serve.ack_s"] = (0.0, "s")
        m["serve.first_point_s"] = (0.0, "s")
        m["serve.overhead_s"] = (0.0, "s")
    m["serve.shed"] = (shed, "count")

    # The fastest replayed operation against the fastest untraced one.
    root_s = fastest["root_s"]
    coverage = 1.0 - fastest["root_self_s"] / root_s
    m["trace.root_s"] = (root_s, "s")
    m["trace.coverage"] = (coverage, "ratio")
    m["trace.overhead_s"] = (root_s - wall, "s")
    if coverage < 1.0 - COVERAGE_TOL:
        problems.append("child spans cover only %.1f%% of the root" % (100 * coverage))
    if abs(root_s - wall) > COVERAGE_TOL * wall:
        problems.append("traced root %.4g s vs untraced wall %.4g s" % (root_s, wall))
    for p in problems:
        log("%s: trace check failed: %s" % (w.name, p))
    attempted = reps + len(ops) + len(execs)
    failed = failed_ops + (reps if problems else 0)
    detail = {"reps": reps, "untraced_wall_s": wall}
    return m, attempted, failed, detail


# --------------------------------------------------------------- main

def bench_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args, root):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "src", "tool", "main.cpp"))):
        log("run.py: no acstab source tree here (run from the root of a checkout)")
        return 2
    w = WORKLOADS[args.workload]
    acstab, pbtool, bdir = build(root)
    env = {"acstab": acstab, "pbtool": pbtool}
    spec = bench_spec(root)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    run_dir = os.path.join(root, ".bench_run", "%s-s%d-%d" % (w.name, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ctx = None
    try:
        ctx, setup_times = do_setup(env, w, run_dir, args.seed,
                                    1 if args.trace else SETUP_REPEATS)
        if args.trace:
            metrics, attempted, failed, detail = per_layer(env, w, ctx, args.seconds)
        else:
            metrics, attempted, failed, detail = end_to_end(env, w, ctx, args.seconds,
                                                            setup_times)
    finally:
        if ctx is not None and "daemon" in ctx:
            ctx["daemon"].close()
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise RuntimeError("metrics not produced: %s" % ", ".join(missing))
    print(json.dumps({"host": host_facts(pbtool, bdir), "workload": w.name, "seed": args.seed,
                      "detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_steady(args, root):
    """Run the workload args.steady times (seeds 1..N) as separate
    processes and report each metric's median, quartiles and spread."""
    spec = bench_spec(root)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in range(1, args.steady + 1):
        r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                            args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=root, capture_output=True,
                           text=True)
        if r.returncode != 0:
            log(r.stderr)
            return r.returncode
        res = json.loads(r.stdout.strip().splitlines()[-1])
        log("seed %d: correct=%s attempted=%d failed=%d" % (seed, res["correct"],
                                                            res["attempted"], res["failed"]))
        for name, v in res["metrics"].items():
            values.setdefault(name, []).append(v["value"])
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                         "steady": None if bound is None else spread < bound / 3,
                         "values": vals}
        print("%-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f  bound %s"
              % (name, med, q1, q3, spread, bound))
    print(json.dumps({"workload": args.workload, "runs": args.steady, "metrics": summary}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="run the workload this many times (seeds 1..N) and report spreads")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if args.steady:
        return run_steady(args, root)
    return run_once(args, root)


if __name__ == "__main__":
    sys.exit(main())
