"""Spans around the package's public entry points, recorded from outside.

Tracer.install() replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, op id) and a few
counts, in every loaded package module that holds the same object, so a
name that another module imported is patched too.  uninstall() puts the
originals back.  Spans stay in memory, in flat arrays, and are written
out once at the end.

Self time is a span's duration minus the durations of its child spans.
The benchmark opens one "op" span per request, so the wall time of an op
that no layer span covers is the op span's self time (trace.untraced_s).
"""

import gzip
import json
import sys
import time
from array import array

# (module, attribute path, span name)
TRACED = (
    ("shuffle", "TensorPoly.mul_shared", "shuffle.mul"),
    ("shuffle", "TensorPoly.shuffle_power", "shuffle.power"),
    ("rota_baxter", "RBElement.mul_shared", "rota_baxter.mul"),
    ("rota_baxter", "RBElement.operator_p", "rota_baxter.operator_p"),
    ("rota_baxter", "check_rb_identity", "rota_baxter.identity"),
    ("rings", "Matrix.smith_normal_form", "rings.smith"),
    ("rings", "Matrix.solve", "rings.solve"),
    # the repeated Smith-form solver over Z that the integral verifiers use
    ("verify", "_ZSolver.solve", "rings.solve"),
    ("rings", "SparseEliminator.insert", "rings.elim_insert"),
    ("words", "enumerate_words", "words.enum"),
    ("words", "enumerate_lyndon", "words.lyndon"),
    ("words", "standard_generating_sets", "words.gensets"),
    ("semigroups", "OrderedSemigroup.classify", "semigroups.classify"),
    ("verify", "PresentedAlgebra.monomials_by_degree", "verify.monomials"),
    ("verify", "check_relations", "verify.relations"),
    ("verify", "compute_cokernel_basis", "verify.cokernel"),
) + tuple(("verify", fn, "verify.verifier") for fn in (
    "verify_radford_hoffman", "verify_fp_weight0", "verify_fp_nonzero",
    "verify_zp", "verify_z_polynomial", "verify_nested_summand",
    "verify_rb_structure", "verify_semigroup_props"))


def _terms_out(args, result):
    return len(result.terms)


def _smith_entries(args, result):
    return args[0].nrows * args[0].ncols


def _rank_gain(args, result):
    return 1 if result else 0


def _words_out(args, result):
    return len(result)


def _monomials_out(args, result):
    return sum(len(bucket) for bucket in result.values())


COUNTS = {
    "shuffle.mul": _terms_out,
    "shuffle.power": _terms_out,
    "rings.smith": _smith_entries,
    "rings.elim_insert": _rank_gain,
    "words.enum": _words_out,
    "verify.monomials": _monomials_out,
}

# per-layer metric -> (unit, how it is read off the per-span totals)
LAYER_METRICS = (
    ("shuffle.mul_calls", "count", ("calls", "shuffle.mul")),
    ("shuffle.mul_self_s", "s", ("self", "shuffle.mul")),
    ("shuffle.terms_out", "count", ("count", "shuffle.mul")),
    ("shuffle.power_calls", "count", ("calls", "shuffle.power")),
    ("shuffle.power_self_s", "s", ("self", "shuffle.power")),
    ("shuffle.power_terms_out", "count", ("count", "shuffle.power")),
    ("rota_baxter.mul_calls", "count", ("calls", "rota_baxter.mul")),
    ("rota_baxter.mul_self_s", "s", ("self", "rota_baxter.mul")),
    ("rota_baxter.identity_checks", "count",
     ("calls", "rota_baxter.identity")),
    ("rota_baxter.operator_p_self_s", "s",
     ("self", "rota_baxter.operator_p")),
    ("rings.smith_calls", "count", ("calls", "rings.smith")),
    ("rings.smith_entries", "count", ("count", "rings.smith")),
    ("rings.smith_self_s", "s", ("self", "rings.smith")),
    ("rings.elim_inserts", "count", ("calls", "rings.elim_insert")),
    ("rings.elim_rank_gain", "count", ("count", "rings.elim_insert")),
    ("rings.elim_useful_ratio", "ratio", None),
    ("rings.elim_self_s", "s", ("self", "rings.elim_insert")),
    ("rings.solve_calls", "count", ("calls", "rings.solve")),
    ("rings.solve_self_s", "s", ("self", "rings.solve")),
    ("words.enum_calls", "count", ("calls", "words.enum")),
    ("words.words_out", "count", ("count", "words.enum")),
    ("words.enum_self_s", "s", ("self", "words.enum", "words.lyndon")),
    ("words.gensets_self_s", "s", ("self", "words.gensets")),
    ("semigroups.classify_calls", "count",
     ("calls", "semigroups.classify")),
    ("semigroups.classify_self_s", "s", ("self", "semigroups.classify")),
    ("verify.monomials_out", "count", ("count", "verify.monomials")),
    ("verify.monomials_self_s", "s", ("self", "verify.monomials")),
    ("verify.relations_self_s", "s", ("self", "verify.relations")),
    ("verify.cokernel_self_s", "s", ("self", "verify.cokernel")),
    ("verify.verifier_self_s", "s", ("self", "verify.verifier")),
)

OP_SPAN = "op"


def _resolve(root, path):
    owner = root
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self, package):
        self.package = package
        self.names = [OP_SPAN]
        self.name_ids = {OP_SPAN: 0}
        self.name = array("H")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.stack = []
        self.current_op = -1
        self.op_group = {}
        # off while the benchmark checks a result with the package itself
        self.enabled = True
        self._patches = []

    def _name_id(self, name):
        got = self.name_ids.get(name)
        if got is None:
            got = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    # recording -----------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.start)
        stack = self.stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op_id.append(self.current_op)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def op(self, op_id, group, fn, *args):
        """Run fn(*args) as request op_id, of the given op group, under a
        root span."""
        self.op_group[op_id] = group
        self.current_op = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.current_op = -1

    def _wrap(self, fn, name):
        name_id = self._name_id(name)
        count = COUNTS.get(name)
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                counts[name] = counts.get(name, 0) + count(args, result)
            return result

        return traced

    # patching ------------------------------------------------------------

    def install(self):
        pkg = self.package.__name__
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for module_name, path, span in TRACED:
            module = sys.modules[pkg + "." + module_name]
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, span)
            targets = [(owner, attr)]
            if owner is module:
                # names other modules imported from this one
                targets = [(m, attr) for m in modules
                           if m.__dict__.get(attr) is original]
            for target, name in targets:
                setattr(target, name, wrapped)
                self._patches.append((target, name, original))

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches = []

    # results -------------------------------------------------------------

    def totals(self):
        """Per span name [calls, total seconds, self seconds], and per op
        group the self seconds of each span name."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        by_group = {}
        name, op_id = self.name, self.op_id
        for i in range(n):
            key = self.names[name[i]]
            rec = out.get(key)
            if rec is None:
                rec = out[key] = [0, 0.0, 0.0]
            dur = end[i] - start[i]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i]
            group = self.op_group.get(op_id[i], "setup")
            cell = by_group.setdefault(group, {})
            cell[key] = cell.get(key, 0.0) + dur - child[i]
        return out, by_group

    def layer_metrics(self, totals):
        metrics = {}
        for metric, unit, how in LAYER_METRICS:
            if how is None:
                continue
            field, names = how[0], how[1:]
            if field == "count":
                value = sum(self.counts.get(n, 0) for n in names)
            else:
                slot = 0 if field == "calls" else 2
                value = sum(totals.get(n, (0, 0.0, 0.0))[slot]
                            for n in names)
            metrics[metric] = (value, unit)
        inserts = metrics["rings.elim_inserts"][0]
        gain = metrics["rings.elim_rank_gain"][0]
        metrics["rings.elim_useful_ratio"] = (
            gain / inserts if inserts else 0.0, "ratio")
        return metrics

    def dump(self, path, meta):
        data = {
            "meta": meta,
            "names": self.names,
            "columns": ["name", "parent", "op", "start", "end"],
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op_id.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
