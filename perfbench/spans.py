"""Span tracer for the benchmark, installed on bnlab from outside the package.

While a `Tracer` is active, every public function and public method defined in
one of bnlab's layer modules is replaced by a timing wrapper. Copies of those
functions that other modules imported by value (`convolution` imports
`substream`, `semigroup_matrix` and `weighted_norm`, for example) are replaced
too. `noise.substream` hands out a proxy around its Philox generator, so draws
are timed and counted where they happen. Leaving the context restores every
original object, so untraced code after it runs exactly as before.

A span's self time is its duration minus the durations of the spans it called.
Named groups (`kernels.series`, `geometry.grid`, ...) count a call and its
inclusive time only at the outermost level, so nested calls are not counted
twice.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("geometry", "kernels", "semigroup", "dirichlet", "noise", "convolution",
          "scenarios", "cli")

# span name (layer.qualname) -> metric group
GROUPS = {
    "kernels.HeatKernel.normal_derivative": "kernels.normal_derivative",
    "kernels.TabulatedKernel.normal_derivative": "kernels.normal_derivative",
    "kernels.HeatKernel.value": "kernels.series",
    "kernels.HeatKernel.grad_x": "kernels.series",
    "kernels.HeatKernel.dxx": "kernels.series",
    "kernels.HeatKernel.resolvent": "kernels.resolvent",
    "kernels.HeatKernel.resolvent_normal": "kernels.resolvent",
    "kernels.halfline_resolvent_exact": "kernels.resolvent",
    "noise.SpectralMeasure.gauss_transform": "noise.gauss_transform",
    "noise.substream": "noise.substream",
    "noise.Generator.normal": "noise.draw",
    "noise.Generator.standard_t": "noise.draw",
    "convolution.EndpointFlux.psi": "convolution.psi",
    "convolution.HomogeneousFlux.psi": "convolution.psi",
    "convolution.MajorantFlux.psi": "convolution.psi",
    "convolution.variance_profile": "convolution.variance_profile",
    "convolution.simulate_convolution": "convolution.simulate",
    "convolution.simulate_mild": "convolution.mild",
    "convolution.j_integral": "convolution.j_integral",
    "semigroup.semigroup_matrix": "semigroup.matrix",
    "semigroup.weighted_norm": "semigroup.weighted_norm",
    "dirichlet.boundary_propagator": "dirichlet.propagator",
    "dirichlet.propagator_majorant": "dirichlet.propagator",
    "dirichlet.fit_majorant_constant": "dirichlet.propagator",
    "dirichlet.dirichlet_map": "dirichlet.map",
    "dirichlet.dirichlet_map_fn": "dirichlet.map",
    "dirichlet.verify_harmonicity": "dirichlet.map",
    "scenarios.build_setup": "scenarios.build_setup",
    "cli.run_scenario": "cli.run_scenario",
    "cli.write_run": "cli.write",
}
for _name in ("difference_bound_report", "verify_kernel_upper_bounds", "gaussian_boundary_mass",
              "fit_boundary_mass_constant", "singular_moment", "fit_singular_moment_exponent",
              "far_weight_constants"):
    GROUPS[f"kernels.{_name}"] = "kernels.certifier"
for _name in ("extension_bound", "gradient_smoothing_ratio", "schur_constants",
              "min_weight_splice_check", "cross_space_smoothing", "stability_rate"):
    GROUPS[f"semigroup.{_name}"] = "semigroup.certificate"
for _name in ("boundary_quadrature", "interval_grid", "halfline_grid", "ball_grid",
              "halfspace_grid", "interior_grid"):
    GROUPS[f"geometry.{_name}"] = "geometry.grid"


def _written_bytes(run_dir):
    return sum(os.path.getsize(os.path.join(run_dir, f)) for f in os.listdir(run_dir))


# counts read from the result of an outermost call of a group: group -> (counter, fn)
COUNTS = {
    "kernels.normal_derivative": ("kernels.normal_derivative.points", np.size),
    "convolution.psi": ("convolution.psi.evals", np.size),
    "convolution.simulate": ("convolution.schedule_steps",
                             lambda out: out[0].meta["n_steps"]),
    "convolution.mild": ("convolution.picard_iterations",
                         lambda out: sum(out.meta["picard_iterations"])),
    "convolution.j_integral": ("convolution.j_levels", lambda out: len(out.j_values)),
    "geometry.grid": ("geometry.grid.nodes", lambda out: out.n),
    "cli.write": ("cli.bytes_written", _written_bytes),
}
# counts read from the result of every call of one span: name -> (counter, fn)
SPAN_COUNTS = {
    "convolution.log_time_panels": ("convolution.time_nodes", lambda out: len(out[0])),
    "noise.Generator.normal": ("noise.normals", np.size),
    "noise.Generator.standard_t": ("noise.t_variates", np.size),
}


class _DrawProxy:
    """Philox generator stand-in that times and counts `normal` and `standard_t`."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self.normal = tracer.wrap("noise.Generator.normal", gen.normal)
        self.standard_t = tracer.wrap("noise.Generator.standard_t", gen.standard_t)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Context manager that wraps bnlab's layer modules and aggregates spans."""

    def __init__(self):
        self._stack = []            # one [child seconds] frame per open span
        self._patched = []
        self.spans = defaultdict(lambda: [0, 0.0])         # name -> [calls, self s]
        self.groups = defaultdict(lambda: [0, 0.0, 0])     # group -> [calls, incl s, depth]
        self.counts = defaultdict(int)

    def reset(self):
        """Zero the spans recorded so far, in place: the wrappers hold these lists."""
        for v in self.spans.values():
            v[:] = [0, 0.0]
        for v in self.groups.values():
            v[:2] = [0, 0.0]
        self.counts.clear()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn):
        group = GROUPS.get(name)
        gcell = self.groups[group] if group else None
        count = COUNTS.get(group)
        span_count = SPAN_COUNTS.get(name)
        span, stack, counts = self.spans[name], self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if gcell:
                gcell[2] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                span[0] += 1
                span[1] += dur - frame[0]
                if gcell:
                    gcell[2] -= 1
                    if not gcell[2]:
                        gcell[0] += 1
                        gcell[1] += dur
            if span_count:
                counts[span_count[0]] += span_count[1](out)
            if count and not gcell[2]:
                counts[count[0]] += count[1](out)
            return out

        return traced

    def _substream(self, fn):
        traced = self.wrap("noise.substream", fn)

        @functools.wraps(fn)
        def substream(*args, **kwargs):
            self.counts["noise.substreams"] += 1
            return _DrawProxy(traced(*args, **kwargs), self)

        return substream

    def _set(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bnlab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    new = (self._substream(obj) if name == "noise.substream"
                           else self.wrap(name, obj))
                    replaced[id(obj)] = new
                    self._set(mod, attr, new)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            self._set(obj, mattr, self.wrap(f"{layer}.{attr}.{mattr}", meth))
        # copies imported by value into other modules
        for modname, mod in list(sys.modules.items()):
            if modname == "bnlab" or modname.startswith("bnlab."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced and getattr(mod, attr) is not replaced[id(obj)]:
                        self._set(mod, attr, replaced[id(obj)])
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
        return False

    # -- metrics ------------------------------------------------------------

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, self_s) in list(self.spans.items()):
            out[name.split(".", 1)[0]] += self_s
        return out

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        g, c, sp = self.groups, self.counts, self.spans
        m = {
            "kernels.normal_derivative.calls": g["kernels.normal_derivative"][0],
            "kernels.normal_derivative.s": g["kernels.normal_derivative"][1],
            "kernels.normal_derivative.points": c["kernels.normal_derivative.points"],
            "kernels.series.calls": g["kernels.series"][0],
            "kernels.series.s": g["kernels.series"][1],
            "kernels.resolvent.s": g["kernels.resolvent"][1],
            "kernels.certifier.s": g["kernels.certifier"][1],
            "noise.substreams": c["noise.substreams"],
            "noise.normals": c["noise.normals"],
            "noise.t_variates": c["noise.t_variates"],
            "noise.draw_s": g["noise.draw"][1],
            # computed, not measured: 8 bytes per float64 variate
            "noise.draw_bytes": 8 * (c["noise.normals"] + c["noise.t_variates"]),
            "noise.gauss_transform.calls": g["noise.gauss_transform"][0],
            "noise.gauss_transform.s": g["noise.gauss_transform"][1],
            "convolution.psi.calls": g["convolution.psi"][0],
            "convolution.psi.s": g["convolution.psi"][1],
            "convolution.psi.evals": c["convolution.psi.evals"],
            "convolution.variance_profile.calls": g["convolution.variance_profile"][0],
            "convolution.variance_profile.s": g["convolution.variance_profile"][1],
            "convolution.time_nodes": c["convolution.time_nodes"],
            "convolution.schedule_steps": c["convolution.schedule_steps"],
            "convolution.simulate.self_s": sp["convolution.simulate_convolution"][1],
            "convolution.mild.self_s": sp["convolution.simulate_mild"][1],
            "convolution.picard_iterations": c["convolution.picard_iterations"],
            "convolution.j_integral.s": g["convolution.j_integral"][1],
            "convolution.j_levels": c["convolution.j_levels"],
            "semigroup.matrix.calls": g["semigroup.matrix"][0],
            "semigroup.matrix.s": g["semigroup.matrix"][1],
            "semigroup.weighted_norm.calls": g["semigroup.weighted_norm"][0],
            "semigroup.weighted_norm.s": g["semigroup.weighted_norm"][1],
            "semigroup.certificate.s": g["semigroup.certificate"][1],
            "dirichlet.map.s": g["dirichlet.map"][1],
            "dirichlet.propagator.s": g["dirichlet.propagator"][1],
            "geometry.grid.calls": g["geometry.grid"][0],
            "geometry.grid.s": g["geometry.grid"][1],
            "geometry.grid.nodes": c["geometry.grid.nodes"],
            "scenarios.build_setup.s": g["scenarios.build_setup"][1],
            "cli.run_scenario.s": g["cli.run_scenario"][1],
            "cli.write.s": g["cli.write"][1],
            "cli.bytes_written": c["cli.bytes_written"],
        }
        for layer, s in self.layer_self_s().items():
            m[f"{layer}.self_s"] = s
        return m
