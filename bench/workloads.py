"""The benchmark's four workloads.

A workload builds its inputs from a seed (``build``), lists its timed
operations (``ops``: ``(key, fn)`` pairs where ``fn(tracer)`` returns
``(problems, info)``), checks outputs that need untimed work after the
timed loop (``verify``), names the figures a user reads (``figures``) and,
in the traced run, the per-layer metrics of its modules
(``layer_metrics``).  ``problems`` lists every mismatch against the pinned
or independent reference; an operation with problems counts as failed.

Protocols come from ``floquet_engine.protocols`` only.
"""

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from floquet_engine import dynamics, floquet, thermo
from floquet_engine.dynamics import SecondMoments
from floquet_engine.protocols import (
    MechanicalProtocol,
    Piece,
    PiecewiseControl,
    as_bosonic,
    constant_control,
    load_protocol,
)

from metrics import check_eta, percentile, pinned_moments, tail_percentile
from tracer import NullTracer

ROOT = Path(__file__).resolve().parent.parent
LEDGER_DEFECT_TOL = 1e-8
RESIDUAL_TOL = 1e-8


def case_of(period):
    return f"T{period:g}"


def solve(proto, tol, tr, case):
    """``solve_frames``; when tracing, its public stages one at a time."""
    if not tr.enabled:
        return floquet.solve_frames(proto, tol=tol)
    with tr.span("floquet.solve_r2", case=case):
        uf = floquet.solve_r2(proto, tol=tol)
    with tr.span("floquet.solve_r1_r0", case=case):
        uf = floquet.solve_r1_r0(proto, uf, tol=tol)
    df = None
    if proto.gamma_bar() > 0:
        with tr.span("floquet.solve_dissipative_frame", case=case):
            df = floquet.solve_dissipative_frame(proto, uf, tol=tol)
    return floquet.FloquetFrames(protocol=proto, unitary=uf, dissipative=df)


def frame_trajectories(frames):
    uf, df = frames.unitary, frames.dissipative
    out = [uf.r2, uf.Lambda, uf.r1, uf.r0, uf.J, uf.z, uf.r1p]
    if df is not None:
        out += [df.G2, df.g3t, df.g4t,
                df.tilde.N_half, df.tilde.M, df.tilde.Mp]
    return [t for t in out if t is not None]


def node_total(frames):
    return sum(sum(t.node_counts()) for t in frame_trajectories(frames))


def node_max(frames):
    return max(max(t.node_counts()) for t in frame_trajectories(frames))


def residual_max(proto, frames):
    """Worst defect of both frames' residual audits."""
    B = floquet.unitary_residuals(proto, frames.unitary)
    C = floquet.dissipative_residuals(proto, frames.unitary,
                                      frames.dissipative)
    return max(float(np.max(np.abs(B[0].values - frames.Lambda_bar))),
               B[1].max_abs(), B[2].max_abs(),
               float(np.max(np.abs(C[0].values - frames.gamma_bar))),
               C[1].max_abs(), C[2].max_abs(), C[3].max_abs())


def ledger_problems(led, label):
    out = []
    for name in ("first_law_defect", "closure_defect"):
        v = getattr(led, name)
        if not v <= LEDGER_DEFECT_TOL:
            out.append(f"{label}: ledger {name} {v:.3e} > "
                       f"{LEDGER_DEFECT_TOL:g}")
    return out


def median_by_key(samples, key):
    return statistics.median(s["seconds"] for s in samples if s["key"] == key)


class Workload:
    name = ""

    def build(self, seed):
        """Make the inputs; this is the set-up that ``setup_s`` times."""

    def ops(self):
        raise NotImplementedError

    def verify(self, samples):
        """Untimed checks after the timed loop; appends to ``problems``."""

    def figures(self, samples, passes):
        return {}

    def layer_metrics(self, tr, samples, ctx):
        return {}

    def close(self):
        pass


# ---------------------------------------------------------------------------
# carnot-ladder

class CarnotLadder(Workload):
    name = "carnot-ladder"
    periods = (300.0, 700.0, 1000.0, 1500.0, 2000.0)
    probes = (4000.0, 8000.0, 16000.0)
    audited = (300.0, 1000.0, 2000.0)

    def build(self, seed):
        # each timed cycle loads its protocol again, as a user's run does
        for T in self.periods:
            self._load(T)

    @staticmethod
    def _load(T):
        return as_bosonic(load_protocol({"builtin": "carnot-fig2"},
                                        period_override=T))

    def ops(self):
        return [(case_of(T), lambda tr, T=T: self.cycle(T, tr))
                for T in self.periods]

    def cycle(self, T, tr):
        case = case_of(T)
        with tr.span("ladder.cycle", case=case):
            with tr.span("protocols.load_protocol", case=case):
                proto = self._load(T)
            frames = solve(proto, 1e-12, tr, case)
            with tr.span("floquet.stability", case=case):
                rep = floquet.stability(frames)
            with tr.span("floquet.limit_cycle_moments", case=case):
                n, m, mbar = floquet.limit_cycle_moments(
                    frames, np.linspace(0.0, T, 512, endpoint=False))
            with tr.span("thermo.work_heat_ledger", case=case):
                led = thermo.work_heat_ledger(frames, proto)
        problems = []
        if rep.stable is not True:
            problems.append(f"{case}: stable is {rep.stable!r}")
        if not all(np.all(np.isfinite(v)) for v in (n, m, mbar)):
            problems.append(f"{case}: non-finite limit-cycle moments")
        bad = check_eta(T, led.efficiency)
        if bad:
            problems.append(bad)
        problems += ledger_problems(led, case)
        info = {"eta": led.efficiency}
        if tr.enabled:
            info.update(proto=proto, frames=frames, ledger=led)
        return problems, info

    def reach(self, samples, tr):
        """Largest period that passes: the ladder's top, then the probes.

        A probe passes when it solves, is stable and its residual audits
        are within ``RESIDUAL_TOL``; the first failing probe stops the
        search.  Failed probes are the measurement, not failed operations.
        """
        failed = {s["key"] for s in samples if s["problems"]}
        reach_T = 0.0
        for T in self.periods:
            if case_of(T) in failed:
                return reach_T, f"ladder fails at {case_of(T)}"
            reach_T = T
        for T in self.probes:
            with tr.span("ladder.reach_probe", case=case_of(T)):
                try:
                    proto = self._load(T)
                    frames = floquet.solve_frames(proto, tol=1e-12)
                    if floquet.stability(frames).stable is not True:
                        return reach_T, f"{case_of(T)}: not stable"
                    res = residual_max(proto, frames)
                    if not res <= RESIDUAL_TOL:
                        return reach_T, f"{case_of(T)}: residual {res:.2e}"
                except Exception as err:  # a failed probe is the measurement
                    return reach_T, f"{case_of(T)}: {type(err).__name__}: {err}"
            reach_T = T
        return reach_T, "all probes pass"

    def figures(self, samples, passes):
        reach_T, note = self.reach(samples, NullTracer())
        return {"ladder_s": (statistics.median(passes), "s"),
                "cycle_s.T1000": (median_by_key(samples, "T1000"), "s"),
                "cycle_s.T2000": (median_by_key(samples, "T2000"), "s"),
                "reach_T": (reach_T, "1/Delta"),
                "reach_T.stop": (note, "")}

    def layer_metrics(self, tr, samples, ctx):
        out = {}
        loads = tr.durations("protocols.load_protocol")
        out["protocols.load_protocol_s"] = statistics.median(loads)
        info = {s["key"]: s["info"] for s in samples}
        for T in self.audited:
            case = case_of(T)
            proto, frames = info[case]["proto"], info[case]["frames"]
            for stage in ("solve_r2", "solve_r1_r0",
                          "solve_dissipative_frame", "limit_cycle_moments"):
                out[f"floquet.{stage}_s.{case}"] = sum(
                    tr.durations(f"floquet.{stage}", case=case))
            out[f"thermo.ledger_s.{case}"] = sum(
                tr.durations("thermo.work_heat_ledger", case=case))
            out[f"periodic_ode.nodes_total.{case}"] = node_total(frames)
            out[f"periodic_ode.nodes_max.{case}"] = node_max(frames)
            # a separate call: solve_dissipative_frame computes it inside
            with tr.span("floquet.tilde_bath_params", case=case,
                         separate_call=True):
                floquet.tilde_bath_params(proto, frames.unitary, tol=1e-12)
            out[f"floquet.tilde_bath_params_s.{case}"] = sum(
                tr.durations("floquet.tilde_bath_params", case=case))
            out[f"floquet.lambda_bar_crosscheck.{case}"] = \
                floquet.lambda_bar_crosscheck(frames.unitary)
            with tr.span("floquet.residual_audit", case=case):
                out[f"floquet.residual_max.{case}"] = residual_max(proto,
                                                                   frames)
        G2 = info["T2000"]["frames"].dissipative.G2
        out["periodic_ode.nodes.G2.T2000"] = max(G2.node_counts())
        out["periodic_ode.reach_T"] = self.reach(samples, tr)[0]
        # in-process serial time of the sweep's five points
        # (load, solve, stability, ledger; no limit-cycle table)
        ctx["serial_sweep_s"] = sum(
            sum(tr.durations(name, case=case_of(T)))
            for T in self.periods
            for name in ("protocols.load_protocol", "floquet.solve_r2",
                         "floquet.solve_r1_r0",
                         "floquet.solve_dissipative_frame",
                         "floquet.stability", "thermo.work_heat_ledger"))
        return out


# ---------------------------------------------------------------------------
# resonance-scan

def mathieu_drive(eps, gamma):
    """Oscillator with Omega(t) = sqrt(1 + eps cos 2t), period pi."""
    period = math.pi
    b = np.array([0.0, period])

    def val(t):
        return np.sqrt(1.0 + eps * np.cos(2.0 * np.asarray(t)))

    def der(t):
        t = np.asarray(t)
        return -eps * np.sin(2.0 * t) / np.sqrt(1.0 + eps * np.cos(2.0 * t))

    Om = PiecewiseControl(b, [Piece(value=val, deriv=der, kind="custom")])
    return as_bosonic(MechanicalProtocol(
        period=period, boundaries=b, labels=["drive"], Omega=Om, eta=1.0,
        gamma=constant_control(b, gamma), temperatures=[1.0]))


class ResonanceScan(Workload):
    name = "resonance-scan"
    size = 200

    def build(self, seed):
        """Seeded draw of drives; the lossless threshold of each is solved
        here, so the timed loop receives only the built protocols."""
        rng = np.random.default_rng(seed)
        self.inputs = []
        for i in range(self.size):
            eps = float(rng.uniform(0.05, 0.6))
            above = bool(rng.random() < 0.5)
            f = float(rng.uniform(1.05, 1.4) if above
                      else rng.uniform(0.7, 0.95))
            lossless = floquet.solve_frames(mathieu_drive(eps, 0.0),
                                            tol=1e-10, dissipative=False)
            threshold = 2.0 * abs(float(np.imag(lossless.Lambda_bar)))
            self.inputs.append({"key": f"d{i:03d}", "factor": f,
                                "proto": mathieu_drive(eps, f * threshold)})

    def ops(self):
        return [(inp["key"], lambda tr, inp=inp: self.solve_one(inp, tr))
                for inp in self.inputs]

    @staticmethod
    def solve_one(inp, tr):
        proto = inp["proto"]
        frames = solve(proto, 1e-10, tr, "scan")
        rep = floquet.stability(frames)
        problems = []
        if rep.stable is not (inp["factor"] > 1.0):
            problems.append(f"{inp['key']}: stable={rep.stable!r} at "
                            f"{inp['factor']:.3f} x threshold")
        if rep.stable:
            n, m, mbar = floquet.limit_cycle_moments(
                frames, np.linspace(0.0, proto.period, 64, endpoint=False))
            if not all(np.all(np.isfinite(v)) for v in (n, m, mbar)):
                problems.append(f"{inp['key']}: non-finite moments")
        info = {"stable": rep.stable}
        if tr.enabled:
            info["nodes_total"] = node_total(frames)
        return problems, info

    def verify(self, samples, tr=None):
        """Each verdict must match the period map's spectral radius."""
        tr = tr or NullTracer()
        by_key = {inp["key"]: inp for inp in self.inputs}
        expected = {}
        for s in samples:
            key = s["key"]
            if key not in expected:
                with tr.span("dynamics.period_map", case="scan"):
                    pm = dynamics.period_map(by_key[key]["proto"])
                expected[key] = pm.spectral_radius < 1.0
            if "stable" in s["info"] \
                    and bool(s["info"]["stable"]) != expected[key]:
                s["problems"].append(f"{key}: verdict {s['info']['stable']} "
                                     f"but period-map radius says "
                                     f"{expected[key]}")

    def figures(self, samples, passes):
        xs = [s["seconds"] for s in samples]
        rule = tail_percentile(len(xs))
        return {"scan_solve_s.p50": (percentile(xs, 50.0), "s"),
                "scan_solve_s.p90": (percentile(xs, 90.0), "s"),
                f"scan_solve_s.p{rule:g}": (percentile(xs, rule), "s"),
                "scan_solve_s.n": (len(xs), "count")}

    def layer_metrics(self, tr, samples, ctx):
        self.verify(samples, tr)
        return {
            "floquet.scan.solve_r2_s.p50": statistics.median(
                tr.durations("floquet.solve_r2", case="scan")),
            "floquet.scan.solve_dissipative_frame_s.p50": statistics.median(
                tr.durations("floquet.solve_dissipative_frame", case="scan")),
            "periodic_ode.scan.nodes_total.p50": statistics.median(
                s["info"]["nodes_total"] for s in samples
                if "nodes_total" in s["info"]),
            "dynamics.scan.period_map_s.p50": statistics.median(
                tr.durations("dynamics.period_map", case="scan")),
        }


# ---------------------------------------------------------------------------
# oracle-route

class OracleRoute(Workload):
    name = "oracle-route"
    cases = (("carnot300", "carnot-fig2", 300.0),
             ("otto400", "otto-demo", 400.0))
    periods_before = 10

    def build(self, seed):
        self.protos = {key: as_bosonic(load_protocol({"builtin": name},
                                                     period_override=T))
                       for key, name, T in self.cases}

    def ops(self):
        return [(key, lambda tr, key=key: self.route(key, tr))
                for key, _, _ in self.cases]

    def route(self, key, tr):
        proto = self.protos[key]
        T = proto.period
        k = self.periods_before
        with tr.span("oracle.protocol", case=key):
            with tr.span("dynamics.stroboscopic_fixed_point", case=key):
                fp = dynamics.stroboscopic_fixed_point(proto)
            t0 = time.perf_counter()
            with tr.span("dynamics.propagate", case=key):
                traj = dynamics.propagate(SecondMoments.thermal(0.0), proto,
                                          0.0, k * T)
            t1 = time.perf_counter()
            with tr.span("dynamics.convergence_report", case=key):
                conv = dynamics.convergence_report(traj.stroboscopic())
            t2 = time.perf_counter()
            with tr.span("dynamics.propagate", case=key):
                last = dynamics.propagate(traj.final, proto, k * T,
                                          (k + 1) * T)
            t3 = time.perf_counter()
            with tr.span("thermo.work_heat_ledger", case=key):
                led = thermo.work_heat_ledger(last, proto)
        problems = []
        fp_dev = float(np.max(np.abs(fp.vector()
                                     - np.array(pinned_moments(key)))))
        if not fp_dev <= 1e-8:
            problems.append(f"{key}: fixed point {fp_dev:.2e} from the "
                            f"pinned frame values")
        end_dev = float(np.max(np.abs(last.final.vector() - fp.vector())))
        if not end_dev <= 1e-7:
            problems.append(f"{key}: propagated end state {end_dev:.2e} "
                            f"from the fixed point")
        problems += ledger_problems(led, key)
        info = {"propagate_s": (t1 - t0) + (t3 - t2), "periods": k + 1,
                "fixed_point_dev": fp_dev, "convergence_ratio": conv.ratio}
        if tr.enabled:
            info["ledger"] = led
        return problems, info

    def figures(self, samples, passes):
        prop = sum(s["info"]["propagate_s"] for s in samples)
        periods = sum(s["info"]["periods"] for s in samples)
        return {"oracle_s": (statistics.median(passes), "s"),
                "propagate_periods_per_s": (periods / prop, "1/s")}

    def layer_metrics(self, tr, samples, ctx):
        out = {}
        info = {s["key"]: s["info"] for s in samples}
        for key, _, _ in self.cases:
            out[f"dynamics.period_map_s.{key}"] = sum(
                tr.durations("dynamics.stroboscopic_fixed_point", case=key))
            out[f"dynamics.propagate_s_per_period.{key}"] = sum(
                tr.durations("dynamics.propagate", case=key)) \
                / info[key]["periods"]
            out[f"dynamics.fixed_point_dev.{key}"] = \
                info[key]["fixed_point_dev"]
            out[f"dynamics.convergence_ratio.{key}"] = \
                info[key]["convergence_ratio"]
            out[f"thermo.ledger_s.{key}"] = sum(
                tr.durations("thermo.work_heat_ledger", case=key))
        return out


# ---------------------------------------------------------------------------
# cli

def run_python(args, cwd, timeout=150.0):
    """Run the interpreter on ``args`` with ``src`` importable; returns
    (exit code, stdout, stderr).  The whole process group is killed on
    timeout, so no pool worker outlives the call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


class Cli(Workload):
    name = "cli"
    sweep_periods = (300.0, 700.0, 1000.0, 1500.0, 2000.0)
    commands = (
        ("limit-cycle", ["limit-cycle", "--period", "1000",
                         "--out", "limit_cycle.csv"]),
        ("simulate", ["simulate", "--period", "300", "--periods", "12",
                      "--out", "simulate.csv"]),
        ("sweep", ["sweep", "--periods", "300,700,1000,1500,2000",
                   "--threads", "2", "--out", "sweep.json"]),
        ("validate", ["validate", "--nmax", "15"]),
    )

    def build(self, seed):
        import floquet_engine.cli  # noqa: F401  (its import is set-up)
        load_protocol({"builtin": "carnot-fig2"})
        work = Path(__file__).resolve().parent / ".work"
        work.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=work))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def ops(self):
        return [(name, lambda tr, name=name, argv=argv:
                 self.command(name, argv, tr))
                for name, argv in self.commands]

    def command(self, name, argv, tr):
        with tr.span(f"cli.{name}"):
            rc, out, err = run_python(["-m", "floquet_engine.cli", *argv],
                                      self.workdir)
        if rc != 0:
            return [f"{name}: exit code {rc}: {err.strip()[-200:]}"], {}
        return getattr(self, "check_" + name.replace("-", "_"))(out), {}

    def check_limit_cycle(self, out):
        problems = []
        path = self.workdir / "limit_cycle.csv"
        rows = path.read_text().count("\n") - 1
        if rows != 512:
            problems.append(f"limit-cycle: {rows} rows, want 512")
        side = json.loads(Path(str(path) + ".json").read_text())
        if side.get("stable") is not True:
            problems.append(f"limit-cycle: sidecar stable={side.get('stable')}")
        return problems

    def check_simulate(self, out):
        return []

    def check_sweep(self, out):
        rows = json.loads((self.workdir / "sweep.json").read_text())
        got = {float(r["period"]): r.get("efficiency") for r in rows}
        if sorted(got) != list(self.sweep_periods):
            return [f"sweep: periods {sorted(got)}"]
        return [p for p in (check_eta(T, got[T]) for T in self.sweep_periods)
                if p]

    def check_validate(self, out):
        passes = [ln for ln in out.splitlines() if ln.startswith("PASS")]
        if len(passes) != 3:
            return [f"validate: {len(passes)} PASS lines, want 3"]
        return []

    def figures(self, samples, passes):
        return {f"{name.replace('-', '_')}_cli_s":
                (median_by_key(samples, name), "s")
                for name, _ in self.commands}

    def layer_metrics(self, tr, samples, ctx):
        imports = []
        for _ in range(3):
            rc, out, err = run_python(
                ["-c", "import time; t = time.perf_counter(); "
                       "import floquet_engine.cli; "
                       "print(time.perf_counter() - t)"], self.workdir)
            if rc != 0:
                raise RuntimeError(f"import failed: {err.strip()[-200:]}")
            imports.append(float(out.split()[-1]))
        sweep = sum(tr.durations("cli.sweep"))
        return {"cli.import_s": statistics.median(imports),
                "cli.sweep.parallel_eff":
                    ctx["serial_sweep_s"] / (2.0 * sweep)}


WORKLOADS = {w.name: w for w in (CarnotLadder, ResonanceScan, OracleRoute,
                                 Cli)}
