"""Span tracer for the kslab layers, installed from outside the package.

The tracer wraps the public entry points of the five layer modules
(``kslab.grid``, ``kslab.profiles``, ``kslab.operators``, ``kslab.dynamics``
and ``kslab.diagnostics``) plus a few private builders where the work of a
layer actually happens (grid operator assembly, the modulation residual and
the frame refold).  Every call becomes a span ``(name, start, end, parent)``;
self time is a span's duration minus the time its child spans cover.

A module that imports a function by name (``kslab.dynamics`` does this with
``build_profile_family``) holds its own reference, so a wrapper is installed
under every name in every ``kslab`` module that refers to the same object.
Dense eigensolves are traced by replacing the ``scipy.linalg`` /
``numpy.linalg`` module references inside the package with proxies whose
factorisation routines are wrapped.

``Tracer.uninstall`` restores every original object; ``find_wrappers``
scans the package for any wrapper left behind, so timed runs can refuse to
start while one is installed.
"""

from __future__ import annotations

import inspect
import sys
import time
import types

import numpy as np

LAYERS = ("grid", "profiles", "operators", "dynamics", "diagnostics")

# Private callables that carry a layer's work and are therefore traced too.
PRIVATE_ENTRY_POINTS = {
    "grid": ("RadialGrid._build_diff", "RadialGrid._cell_weights"),
    "dynamics": ("ModulationSolver._residual", "_rescale_state"),
}

# Constructors and call operators that are traced (others are value types).
DUNDER_ENTRY_POINTS = {
    "grid": ("RadialGrid.__init__",),
    "operators": ("OperatorBundle.__init__",),
    "dynamics": ("ModulationSolver.__init__", "SemiImplicitStepper.__init__",
                 "ProfileCache.__call__"),
}

# Small value classes whose methods are accessors; tracing them would cost
# more than the work they do.
UNTRACED_CLASSES = {"RadialField", "FieldPair"}

# Dense factorisations counted as eigensolves (scipy.linalg / numpy.linalg).
EIGENSOLVERS = ("eigh", "eigvalsh", "svd", "null_space")

_MARK = "__kslab_bench_wrapper__"


def eigensolve_flops(fname, args, kwargs):
    """Leading-order LAPACK operation count of one dense factorisation.

    Computed from the operand shape, not measured: Golub & Van Loan,
    *Matrix Computations* (4th ed.), Sec. 8.3 (symmetric QR: 4n^3/3 for
    eigenvalues, 9n^3 with eigenvectors) and Fig. 8.6.1 (SVD of an m x n
    matrix, m >= n: 4mn^2 - 4n^3/3 for values, 14mn^2 + 8n^3 with thin
    factors, 4m^2 n + 8mn^2 + 9n^3 with full factors).  ``null_space``
    is a full SVD.
    """
    a = args[0] if args else kwargs.get("a")
    shape = np.shape(a)
    if len(shape) != 2:
        return 0.0
    if fname in ("eigh", "eigvalsh"):
        n = shape[0]
        vectors = fname == "eigh" and not kwargs.get("eigvals_only", False)
        return 9.0 * n ** 3 if vectors else 4.0 * n ** 3 / 3.0
    m, n = max(shape), min(shape)
    if kwargs.get("compute_uv") is False:
        return 4.0 * m * n ** 2 - 4.0 * n ** 3 / 3.0
    if fname == "null_space" or kwargs.get("full_matrices", True):
        return 4.0 * m * m * n + 8.0 * m * n ** 2 + 9.0 * n ** 3
    return 14.0 * m * n ** 2 + 8.0 * n ** 3


def _kslab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kslab" or name.startswith("kslab."))]


def _layer_modules():
    out = {}
    for layer in LAYERS:
        mod = sys.modules.get("kslab." + layer)
        if mod is not None:
            out[layer] = mod
    return out


def find_wrappers():
    """Names of every tracer wrapper or proxy still installed in kslab."""
    found = []
    for mod in _kslab_modules():
        for attr, val in list(vars(mod).items()):
            if getattr(val, _MARK, False):
                found.append("%s.%s" % (mod.__name__, attr))
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                for cattr, cval in list(vars(val).items()):
                    fn = getattr(cval, "__func__", cval)
                    if getattr(fn, _MARK, False):
                        found.append("%s.%s.%s" % (mod.__name__, attr, cattr))
    return found


class Tracer:
    """Records spans for every traced call between install and uninstall.

    Use as a context manager.  Spans are kept in memory as parallel lists
    (index order is start order, so a parent always precedes its children).
    """

    def __init__(self):
        self.names = []          # span name table
        self.name_layer = []     # layer of each name
        self.span_name = []      # per span: index into names
        self.span_t0 = []
        self.span_t1 = []
        self.span_parent = []
        self.flops = 0.0         # computed eigensolve operation count
        self.grid_sizes = []     # nodes of every RadialGrid constructed
        self.dense_dims = []     # stacked dimension of every OperatorBundle
        self._stack = []
        self._patches = []       # (owner, attr, original) in install order
        self._wrapped = {}       # id(original) -> wrapper

    # -- span recording --------------------------------------------------

    def _name_id(self, name, layer):
        self.names.append(name)
        self.name_layer.append(layer)
        return len(self.names) - 1

    def _make_wrapper(self, fn, name, layer, hook=None):
        nid = self._name_id(name, layer)
        span_name, t0s, t1s, parents = (self.span_name, self.span_t0,
                                        self.span_t1, self.span_parent)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _MARK, True)
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _hook_for(self, qualname):
        if qualname == "RadialGrid.__init__":
            return lambda a, k: self.grid_sizes.append(int(a[0].n))
        if qualname == "OperatorBundle.__init__":
            return lambda a, k: self.dense_dims.append(2 * int(a[0].grid.n))
        return None

    def _targets(self):
        """(layer, qualname, function, class or None, class attribute) for
        every traced callable."""
        out = []
        for layer, mod in _layer_modules().items():
            extra = (set(PRIVATE_ENTRY_POINTS.get(layer, ()))
                     | set(DUNDER_ENTRY_POINTS.get(layer, ())))
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not name.startswith("_") or name in extra:
                        out.append((layer, name, obj, None, None))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)
                      and name not in UNTRACED_CLASSES):
                    for cattr, cval in list(vars(obj).items()):
                        qual = "%s.%s" % (name, cattr)
                        if cattr.startswith("_") and qual not in extra:
                            continue
                        if isinstance(cval, (classmethod, staticmethod)):
                            fn = cval.__func__
                        elif inspect.isfunction(cval):
                            fn = cval
                        else:
                            continue  # properties and plain attributes
                        out.append((layer, qual, fn, obj, cattr))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        if find_wrappers():
            raise RuntimeError("another tracer is installed")
        try:
            self._install_functions()
            self._install_linalg()
        except BaseException:
            self.uninstall()   # leave nothing half installed
            raise
        return self

    def _install_functions(self):
        by_id = {}
        for layer, qual, fn, cls, cattr in self._targets():
            hook = self._hook_for(qual)
            wrapper = self._make_wrapper(fn, "%s.%s" % (layer, qual), layer,
                                         hook)
            if cls is not None:
                raw = vars(cls)[cattr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                elif isinstance(raw, staticmethod):
                    wrapper = staticmethod(wrapper)
                self._patch(cls, cattr, wrapper)
            else:
                by_id[id(fn)] = (fn, wrapper)
        # every module-level reference to a traced function, under any name
        for mod in _kslab_modules():
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

    def _install_linalg(self):
        import numpy.linalg
        import scipy.linalg
        libs = {id(scipy.linalg): scipy.linalg, id(numpy.linalg): numpy.linalg}
        proxies = {}
        named = {}
        for lib in libs.values():
            for fname in EIGENSOLVERS:
                fn = getattr(lib, fname, None)
                if fn is not None:
                    named[id(fn)] = (fn, fname)

        def flop_hook(fname):
            def hook(args, kwargs):
                self.flops += eigensolve_flops(fname, args, kwargs)
            return hook

        def wrap(fn, fname):
            key = id(fn)
            if key not in self._wrapped:
                self._wrapped[key] = self._make_wrapper(
                    fn, "operators.linalg." + fname, "operators",
                    flop_hook(fname))
            return self._wrapped[key]

        for mod in _kslab_modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in libs and libs[id(val)] is val:
                    if id(val) not in proxies:
                        proxy = types.ModuleType(val.__name__)
                        proxy.__getattr__ = (lambda name, _lib=val:
                                             getattr(_lib, name))
                        for fname in EIGENSOLVERS:
                            fn = getattr(val, fname, None)
                            if fn is not None:
                                setattr(proxy, fname, wrap(fn, fname))
                        setattr(proxy, _MARK, True)
                        proxies[id(val)] = proxy
                    self._patch(mod, attr, proxies[id(val)])
                elif id(val) in named and named[id(val)][0] is val:
                    self._patch(mod, attr, wrap(*named[id(val)]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._wrapped = {}

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        """Span table as numpy arrays: name id, start, end, parent, self."""
        name = np.asarray(self.span_name, dtype=np.int64)
        t0 = np.asarray(self.span_t0, dtype=float)
        t1 = np.asarray(self.span_t1, dtype=float)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = t1 - t0
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has],
                            minlength=len(dur)) if len(dur) else dur
        return name, t0, t1, parent, dur - child
