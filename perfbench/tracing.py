"""Per-layer tracing from outside the library.

Wrappers are installed around each layer's public functions at every
name a module looks them up by (``cli`` imports ``gfpr`` into its own
namespace, ``structured`` reads ``kernels.jacobi_eigvals`` at call time,
...).  Each call records a span (group, start, end, parent); a layer's
self time is its spans' durations minus the time covered by their
direct child spans.  ``det_poly`` is counted only, so its time stays
with the oracle that called it.  A function that no longer exists is
skipped and its metrics read 0.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, attribute path, group); group None = count only
TARGETS = [
    ("rosepencil.pencils", "GfprRecipe.__post_init__", "tuples.recipe"),
    ("rosepencil.pencils", "fiedler_pencil", "pencils.build"),
    ("rosepencil.pencils", "gf_pencil", "pencils.build"),
    ("rosepencil.pencils", "gfpr", "pencils.build"),
    ("rosepencil.pencils", "gfpr_poly", "pencils.build"),
    ("rosepencil.polymat", "structure_check", "polymat.structure_check"),
    ("rosepencil.structured", "symmetric_linearization", "structured.linearize"),
    ("rosepencil.structured", "t_even_linearization", "structured.linearize"),
    ("rosepencil.structured", "t_odd_linearization", "structured.linearize"),
    ("rosepencil.structured", "hamiltonian_linearization", "structured.linearize"),
    ("rosepencil.structured", "skew_hamiltonian_linearization",
     "structured.linearize"),
    ("rosepencil.structured", "skew_symmetric_linearization",
     "structured.linearize"),
    ("rosepencil.structured", "find_quasi_identity", "structured.quasi_identity"),
    ("rosepencil.structured", "cauchy_maslov_index", "structured.cm_index"),
    ("rosepencil.realize", "transfer_function_eval", "realize.transfer_eval"),
    ("rosepencil.recover", "eigenvector_bundle", "recover.recover"),
    ("rosepencil.recover", "recover_from_gfpr", "recover.recover"),
    ("rosepencil.recover", "recover_from_pgf", "recover.recover"),
    ("rosepencil.recover", "recover_s_to_g", "recover.recover"),
    ("rosepencil.verify", "pencil_eigenvalues", "verify.eig"),
    ("rosepencil.verify", "det_proportionality", "verify.det_prop"),
    ("rosepencil.verify", "infinity_structure", "verify.infinity"),
    ("rosepencil.verify", "det_poly", None),
    ("rosepencil.kernels", "aberth_roots", "kernels.aberth"),
    ("rosepencil.kernels", "jacobi_eigvals", "kernels.jacobi"),
    ("rosepencil.cli", "cmd_build", "cli.self"),
    ("rosepencil.cli", "cmd_structured", "cli.self"),
    ("rosepencil.cli", "cmd_verify", "cli.self"),
    ("rosepencil.cli", "cmd_recover", "cli.self"),
    ("rosepencil.cli", "cmd_eig", "cli.self"),
    ("rosepencil.cli", "cmd_cm_index", "cli.self"),
]

# per_layer metric -> (kind, group); kind "ms" is self time, "calls" a count
SPAN_METRICS = {
    "tuples.recipe_ms": ("ms", "tuples.recipe"),
    "tuples.recipe_calls": ("calls", "tuples.recipe"),
    "pencils.build_ms": ("ms", "pencils.build"),
    "pencils.build_calls": ("calls", "pencils.build"),
    "polymat.structure_check_ms": ("ms", "polymat.structure_check"),
    "polymat.structure_check_calls": ("calls", "polymat.structure_check"),
    "structured.linearize_ms": ("ms", "structured.linearize"),
    "structured.quasi_identity_ms": ("ms", "structured.quasi_identity"),
    "structured.quasi_identity_calls": ("calls", "structured.quasi_identity"),
    "structured.cm_index_ms": ("ms", "structured.cm_index"),
    "realize.transfer_eval_ms": ("ms", "realize.transfer_eval"),
    "realize.transfer_eval_calls": ("calls", "realize.transfer_eval"),
    "recover.recover_ms": ("ms", "recover.recover"),
    "recover.recover_calls": ("calls", "recover.recover"),
    "verify.eig_ms": ("ms", "verify.eig"),
    "verify.eig_calls": ("calls", "verify.eig"),
    "verify.det_prop_ms": ("ms", "verify.det_prop"),
    "verify.infinity_ms": ("ms", "verify.infinity"),
    "verify.det_poly_calls": ("calls", "det_poly"),
    "kernels.aberth_ms": ("ms", "kernels.aberth"),
    "kernels.aberth_calls": ("calls", "kernels.aberth"),
    "kernels.jacobi_ms": ("ms", "kernels.jacobi"),
    "kernels.jacobi_calls": ("calls", "kernels.jacobi"),
    "cli.self_ms": ("ms", "cli.self"),
}


# every per-layer metric of a traced run, in report order, with its unit
UNITS = {
    "tuples.recipe_ms": "ms/problem",
    "tuples.recipe_calls": "calls/problem",
    "pencils.build_ms": "ms/problem",
    "pencils.build_calls": "calls/problem",
    "polymat.structure_check_ms": "ms/problem",
    "polymat.structure_check_calls": "calls/problem",
    "structured.linearize_ms": "ms/problem",
    "structured.quasi_identity_ms": "ms/problem",
    "structured.quasi_identity_calls": "calls/problem",
    "structured.cm_index_ms": "ms/problem",
    "realize.transfer_eval_ms": "ms/problem",
    "realize.transfer_eval_calls": "calls/problem",
    "recover.recover_ms": "ms/problem",
    "recover.recover_calls": "calls/problem",
    "verify.eig_ms": "ms/problem",
    "verify.eig_calls": "calls/problem",
    "verify.det_prop_ms": "ms/problem",
    "verify.infinity_ms": "ms/problem",
    "verify.det_poly_calls": "calls/problem",
    "verify.failures": "count/problem",
    "verify.eig_max_dist": "rel",
    "kernels.aberth_ms": "ms/problem",
    "kernels.aberth_calls": "calls/problem",
    "kernels.jacobi_ms": "ms/problem",
    "kernels.jacobi_calls": "calls/problem",
    "kernels.aberth_deg60_ms": "ms",
    "kernels.jacobi_n60_ms": "ms",
    "cli.self_ms": "ms/problem",
    "cli.bytes_out": "B/problem",
    "cli.nonzero_exits": "count/problem",
    "trace.overhead_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def _resolve(modname, path):
    """(owner, attribute, original) or None when it does not exist."""
    owner = sys.modules.get(modname)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Installs span-recording wrappers; accumulates self times and
    counts per group across problems."""

    def __init__(self):
        self.spans = []        # [group, start, end, parent, verify_failure]
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.verify_failures = 0
        self._patched = []     # (owner, attribute, original)

    def _wrap(self, fn, group):
        tracer = self

        if group is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls["det_poly"] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [group, time.perf_counter(), 0.0, parent, False]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__ == "VerificationFailure"
                raise
            finally:
                tracer.stack.pop()
                span[2] = time.perf_counter()
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "rosepencil" or name.startswith("rosepencil.")]
        for modname, path, group in TARGETS:
            found = _resolve(modname, path)
            if found is None:
                continue
            owner, attr, orig = found
            wrapper = self._wrap(orig, group)
            if "." in path:          # a method: patch the class only
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def fold(self):
        """Add the spans recorded so far to the totals and drop them."""
        child = [0.0] * len(self.spans)
        for group, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (group, start, end, parent, vfail) in enumerate(self.spans):
            self.self_s[group] += (end - start) - child[i]
            self.calls[group] += 1
            outer_verify = parent < 0 or not self.spans[parent][0].startswith("verify.")
            if vfail and group.startswith("verify.") and outer_verify:
                self.verify_failures += 1
        self.spans.clear()

    def metrics(self, problems):
        """Per-problem means of every span metric."""
        out = {}
        for name, (kind, group) in SPAN_METRICS.items():
            total = self.self_s[group] * 1e3 if kind == "ms" else self.calls[group]
            out[name] = total / problems
        out["verify.failures"] = self.verify_failures / problems
        return out


def kernel_figures():
    """Hand-timed kernel figures: Aberth roots of a degree-60 polynomial
    (best of 5) and Jacobi eigenvalues of a 60 x 60 symmetric matrix
    (one run), each checked against numpy.  Returns (metrics, ok); the
    metrics read 0 when the kernels module is gone."""
    import numpy as np

    try:
        from rosepencil import kernels
    except ImportError:
        return {"kernels.aberth_deg60_ms": 0.0, "kernels.jacobi_n60_ms": 0.0}, True
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=61) + 1j * rng.normal(size=61)
    coeffs[-1] += 2.0
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        roots = kernels.aberth_roots(coeffs.copy(), 1e-13, 200)
        best = min(best, time.perf_counter() - t0)
    ref = np.roots(coeffs[::-1])
    dist = np.abs(np.subtract.outer(roots, ref)).min(axis=1).max()
    ok = bool(dist < 1e-8 * (1 + np.abs(ref).max()))

    rng = np.random.default_rng(3)
    A = rng.normal(size=(60, 60))
    A = A + A.T
    t0 = time.perf_counter()
    ev = kernels.jacobi_eigvals(A.copy(), 1e-12, 100)
    t_jac = time.perf_counter() - t0
    ok &= bool(np.max(np.abs(np.sort(ev) - np.linalg.eigvalsh(A))) < 1e-9 * np.abs(A).max() * 60)
    return {"kernels.aberth_deg60_ms": best * 1e3,
            "kernels.jacobi_n60_ms": t_jac * 1e3}, ok
