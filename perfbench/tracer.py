"""Outside-in tracing of the dgocp layers.

The tracer wraps public functions of the dgocp modules from the benchmark's
side; nothing in the package is edited.  A wrapped name is replaced in every
loaded ``dgocp`` module that holds it (the package namespace and the modules
that re-import it), and methods are replaced on their class, so calls made
inside the package go through the wrapper too.

Two kinds of span:

* kept spans (table, optimizer, state/adjoint/forward solves) are
  stored one by one with their parent and unit id, and written out when the
  run ends;
* leaf spans (Legendre tables, DG evaluation, point location, problem
  callbacks, ...) run hundreds of thousands of times per table, so only their
  call count, total and self time are aggregated.

Self time is a span's duration minus the time covered by its child spans.
A name that a later version of the package no longer has is reported as
absent and its metrics read 0.
"""

import dataclasses
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

_pc = time.perf_counter

# problem callbacks counted under problems.callbacks
CALLBACKS = ("f", "fx", "fu", "g", "gx", "gu", "stationary_control")
PHASES = ("state", "adjoint")


class Tracer:
    """Patches the dgocp layers while active and aggregates what it sees."""

    def __init__(self):
        self.stack = [0.0]  # child time of each open span; [0] is the root
        self.open = []  # ids of open kept spans
        self.agg = {}  # span name -> [calls, total_s, self_s]
        self.counts = defaultdict(float)
        self.spans = []  # kept spans: (id, parent, unit, name, t0, t1)
        self.absent = []
        self.unit = None
        self.phase = ["other"]  # innermost of solve_state / solve_adjoint
        self.minimizes = []  # bookkeeping of the open minimize calls
        self.tables = []  # bookkeeping of the open run_convergence calls
        self._next_id = 0
        self._patches = []
        self._stall_error = None

    # -- spans ----------------------------------------------------------------

    def _begin(self):
        self._next_id += 1
        self.stack.append(0.0)
        self.open.append(self._next_id)
        return self._next_id, _pc()

    def _end(self, name, token):
        sid, t0 = token
        t1 = _pc()
        dt = t1 - t0
        child = self.stack.pop()
        self.stack[-1] += dt
        self.open.pop()
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - child
        self.spans.append((sid, self.open[-1] if self.open else None, self.unit, name, t0, t1))
        return dt

    def _leaf(self, name, fn, on_call=None):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stack.append(0.0)
            t0 = _pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _pc() - t0
                child = stack.pop()
                stack[-1] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child

        return wrapper

    def begin_unit(self, label):
        """Open the kept span of one unit of work; its id tags every span inside."""
        token = self._begin()
        self.unit = token[0]
        return label, token

    def end_unit(self, handle):
        label, token = handle
        self._end("unit:" + label, token)
        self.unit = None

    # -- patching -------------------------------------------------------------

    def _replace_everywhere(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if modname != "dgocp" and not modname.startswith("dgocp."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, new)

    def _patch(self, layer, attr, make):
        """Wrap dgocp.<layer>.<attr> ('Class.method' for methods) with make(orig)."""
        name = f"{layer}.{attr}"
        try:
            owner = importlib.import_module("dgocp." + layer)
        except ImportError:
            self.absent.append(name)
            return
        cls_name, _, key = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        orig = getattr(owner, key, None)
        if not callable(orig):
            self.absent.append(name)
            return
        new = make(orig)
        if cls_name:
            self._patches.append((owner, key, orig))
            setattr(owner, key, new)
        else:
            self._replace_everywhere(orig, new)

    def __enter__(self):
        try:
            self._stall_error = importlib.import_module("dgocp.optimize").StallError
        except (ImportError, AttributeError):
            self._stall_error = None
        leaf = self._leaf
        for layer, attr in (
            ("basis", "legendre_table"),
            ("basis", "gauss_rule"),
            ("mesh", "Partition.locate"),
            ("mesh", "modal_from_values"),
            ("ocp", "cost"),
        ):
            self._patch(layer, attr, lambda fn, n=f"{layer}.{attr.split('.')[-1]}": leaf(n, fn))
        self._patch("mesh", "DGFunction.eval_many",
                    lambda fn: leaf("mesh.eval_many", fn, self._count_points))
        self._patch("mesh", "l2_error", lambda fn: leaf("mesh.l2_error", fn, self._saw_l2_error))
        self._patch("ocp", "reduced_gradient", self._wrap_reduced_gradient)
        self._patch("ocp", "solve_state", lambda fn: self._wrap_phase("state", fn))
        self._patch("ocp", "solve_adjoint", lambda fn: self._wrap_phase("adjoint", fn))
        self._patch("ivp", "solve_forward", self._wrap_solve_forward)
        self._patch("optimize", "minimize", self._wrap_minimize)
        self._patch("convergence", "run_convergence", self._wrap_run_convergence)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)
        return False

    def wrap_problem(self, problem):
        """Count the callbacks of one OCProblem instance (undone on exit)."""
        for key in CALLBACKS:
            fn = getattr(problem, key, None)
            if callable(fn):
                self._patches.append((problem, key, fn))
                setattr(problem, key, self._leaf("problems.callbacks", fn))

    # -- layer-specific wrappers ------------------------------------------------

    def _count_points(self, args, kwargs):
        ts = args[1] if len(args) > 1 else kwargs.get("ts")
        self.counts["mesh.eval_many.points"] += np.size(ts)

    def _saw_l2_error(self, args, kwargs):
        if self.tables:
            self.tables[-1]["levels_started"] = True

    def _wrap_reduced_gradient(self, fn):
        def wrapper(*args, **kwargs):
            return self._leaf("ocp.gradient", fn(*args, **kwargs))
        return wrapper

    def _wrap_phase(self, phase, fn):
        name = "ocp.solve_" + phase

        def wrapper(*args, **kwargs):
            frame = self.minimizes[-1] if self.minimizes else None
            if frame is not None and phase == "adjoint":
                # the optimizer continues from an accepted trial: the adjoint
                # solve that follows takes that trial's state
                x_h = args[2] if len(args) > 2 else kwargs.get("x_h")
                if any(x_h is x for x in frame["trials"]):
                    frame["accepted"] += 1
                frame["trials"].clear()
            self.phase.append(phase)
            token = self._begin()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(name, token)
                self.phase.pop()
            if frame is not None and phase == "state":
                frame["state_solves"] += 1
                if frame["state_solves"] > 1:  # the first is the start control
                    frame["trials"].append(out)
            return out
        return wrapper

    def _count_rhs(self, rhs):
        """An IVPRight whose F and dF_dx count their calls, or None if not possible."""
        F, dF = getattr(rhs, "F", None), getattr(rhs, "dF_dx", None)
        if not (callable(F) and callable(dF)):
            return None, None
        cnt = [0, 0]

        def counted_F(*args, **kwargs):
            cnt[0] += 1
            return F(*args, **kwargs)

        def counted_dF(*args, **kwargs):
            cnt[1] += 1
            return dF(*args, **kwargs)

        try:
            return dataclasses.replace(rhs, F=counted_F, dF_dx=counted_dF), cnt
        except (TypeError, ValueError):
            return None, None

    def _wrap_solve_forward(self, fn):
        def wrapper(rhs, *args, **kwargs):
            phase = self.phase[-1]
            counted, cnt = self._count_rhs(rhs)
            if counted is None:
                self.counts["ivp.uncounted_solves"] += 1
                counted = rhs
            partition = args[1] if len(args) > 1 else kwargs.get("partition")
            token = self._begin()
            try:
                return fn(counted, *args, **kwargs)
            finally:
                dt = self._end("ivp.solve_forward", token)
                c = self.counts
                c[f"ivp.{phase}.s"] += dt
                c[f"ivp.{phase}.intervals"] += getattr(partition, "N", 0)
                if cnt is not None:
                    c[f"ivp.{phase}.residual_evals"] += cnt[0]
                    c[f"ivp.{phase}.jacobian_evals"] += cnt[1]
        return wrapper

    def _wrap_minimize(self, fn):
        def wrapper(*args, **kwargs):
            frame = {"state_solves": 0, "accepted": 0, "trials": []}
            self.minimizes.append(frame)
            token = self._begin()
            c = self.counts
            try:
                report = fn(*args, **kwargs)
            except Exception as exc:
                if self._stall_error is not None and isinstance(exc, self._stall_error):
                    c["optimize.stall_errors"] += 1
                    c["optimize.outer_iters"] += getattr(exc, "iteration", 0)
                raise
            finally:
                dt = self._end("optimize.minimize", token)
                self.minimizes.pop()
                c["optimize.state_solves"] += frame["state_solves"]
                c["optimize.trials"] += max(frame["state_solves"] - 1, 0)
                c["optimize.accepted"] += frame["accepted"]
                if self.tables and not self.tables[-1]["levels_started"]:
                    self.tables[-1]["early_minimize_s"].append(dt)
            iters = getattr(report, "iterations", 0)
            c["optimize.outer_iters"] += iters
            opts = args[5] if len(args) > 5 else kwargs.get("opts")
            cap = getattr(opts, "max_outer", None)
            if not getattr(report, "converged", True) and cap is not None and iters >= cap:
                c["optimize.capped"] += 1
            return report
        return wrapper

    def _wrap_run_convergence(self, fn):
        def wrapper(*args, **kwargs):
            frame = {"levels_started": False, "early_minimize_s": []}
            self.tables.append(frame)
            token = self._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self._end("convergence.run_convergence", token)
                self.tables.pop()
                # every minimize before the first error evaluation except the
                # last one (the first level) solves the reference
                ref = sum(frame["early_minimize_s"][:-1])
                self.counts["convergence.reference_s"] += ref
                self.counts["convergence.levels_s"] += dt - ref
        return wrapper

    # -- results --------------------------------------------------------------

    def _a(self, name):
        return self.agg.get(name, (0, 0.0, 0.0))

    def metrics(self):
        """Per-layer metrics by name (the names listed in BENCHMARK.json)."""
        a, c = self._a, self.counts
        m = {
            "basis.legendre_table.calls": a("basis.legendre_table")[0],
            "basis.legendre_table.self_s": a("basis.legendre_table")[2],
            "basis.gauss_rule.calls": a("basis.gauss_rule")[0],
            "mesh.eval_many.calls": a("mesh.eval_many")[0],
            "mesh.eval_many.points": c["mesh.eval_many.points"],
            "mesh.eval_many.self_s": a("mesh.eval_many")[2],
            "mesh.locate.self_s": a("mesh.locate")[2],
            "mesh.modal_from_values.self_s": a("mesh.modal_from_values")[2],
            "mesh.l2_error.self_s": a("mesh.l2_error")[2],
            "ivp.solve_forward.calls": a("ivp.solve_forward")[0],
            "ivp.solve_forward.self_s": a("ivp.solve_forward")[2],
        }
        phases = ("",) + tuple(p + "." for p in PHASES)
        for prefix in phases:
            keys = [prefix[:-1]] if prefix else PHASES + ("other",)
            secs = sum(c[f"ivp.{k}.s"] for k in keys)
            intervals = sum(c[f"ivp.{k}.intervals"] for k in keys)
            res = sum(c[f"ivp.{k}.residual_evals"] for k in keys)
            jac = sum(c[f"ivp.{k}.jacobian_evals"] for k in keys)
            m[f"ivp.{prefix}intervals"] = intervals
            m[f"ivp.{prefix}interval_us"] = 1e6 * secs / intervals if intervals else 0.0
            if not prefix:
                m["ivp.residual_evals"] = res
                m["ivp.jacobian_evals"] = jac
            # each interval evaluates its starting residual once, then one
            # Jacobian and at least one residual per Newton step
            m[f"ivp.{prefix}newton_per_interval"] = jac / intervals if intervals else 0.0
            m[f"ivp.{prefix}residuals_per_newton"] = (res - intervals) / jac if jac else 0.0
        iters = c["optimize.outer_iters"]
        m.update({
            "ocp.solve_state.calls": a("ocp.solve_state")[0],
            "ocp.solve_state.s": a("ocp.solve_state")[1],
            "ocp.solve_adjoint.calls": a("ocp.solve_adjoint")[0],
            "ocp.solve_adjoint.s": a("ocp.solve_adjoint")[1],
            "ocp.cost.self_s": a("ocp.cost")[2],
            "ocp.gradient.calls": a("ocp.gradient")[0],
            "ocp.gradient.self_s": a("ocp.gradient")[2],
            "problems.callbacks.calls": a("problems.callbacks")[0],
            "problems.callbacks.self_s": a("problems.callbacks")[2],
            "optimize.minimize.self_s": a("optimize.minimize")[2],
            "optimize.outer_iters": iters,
            "optimize.state_solves_per_iter": c["optimize.state_solves"] / iters if iters else 0.0,
            "optimize.accept_ratio": (c["optimize.accepted"] / c["optimize.trials"]
                                      if c["optimize.trials"] else 0.0),
            "optimize.stall_errors": c["optimize.stall_errors"],
            "optimize.capped": c["optimize.capped"],
            "convergence.reference_s": c["convergence.reference_s"],
            "convergence.levels_s": c["convergence.levels_s"],
        })
        return m

    def write(self, path, extra=None):
        """Write the kept spans, then one summary line, as JSON lines."""
        with open(path, "w") as fh:
            for sid, parent, unit, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "unit": unit,
                                     "name": name, "t0": t0, "t1": t1}) + "\n")
            summary = {
                "summary": {name: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                            for name, v in sorted(self.agg.items())},
                "counts": dict(self.counts),
                "absent": self.absent,
            }
            summary.update(extra or {})
            fh.write(json.dumps(summary) + "\n")
