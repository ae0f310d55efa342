"""
Spans around the library's public functions, recorded from outside.

:meth:`Tracer.install` wraps every public function of every
``sigmabraid`` module (plus the CLI subcommand handlers) and rebinds the
wrapper in each ``sigmabraid`` namespace that holds the original, so a
call through a ``from .characters import evaluate`` binding is seen as
well.  :meth:`Tracer.remove` puts every original back.

Each wrapped call pushes a frame; on return its duration is added to the
parent frame, so a label's self time is its duration minus the time its
wrapped children took.  Entry points (``SPAN_LABELS``) also append a span
record ``[label, start, end, parent span, op id]``; the hot leaves
(``models.step``, ``words.reduce``, ``characters.evaluate`` and the small
helpers) only add to per-label counters, which bounds memory.  Nested
calls that share a label (``parse_word`` calling ``parse_symbols``) count
once, as the outermost call.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

from sigmabraid import characters, cli, criterion, models, presentations, sigma, words

_MODULES = {"words": words, "presentations": presentations, "models": models,
            "characters": characters, "sigma": sigma, "criterion": criterion, "cli": cli}
LAYERS = tuple(_MODULES)

# function name -> label, where the label is not "<layer>.<name>"
_RENAMES = {
    "words.parse_word": "words.parse",
    "words.parse_symbols": "words.parse",
    "presentations.instantiate_presentation": "presentations.instantiate",
    "presentations.instantiate_family": "presentations.instantiate",
    "sigma.decide_sigma": "sigma.decide",
    "criterion.verify_certificate": "criterion.verify",
    "criterion.generate_braid_certificate": "criterion.gen",
    "criterion.generate_lemma_certificates": "criterion.gen",
    "criterion.explore_ball": "criterion.ball",
    "cli._cmd_classify": "cli.classify",
    "cli._cmd_verify_cert": "cli.verify-cert",
    "cli._cmd_verify_relations": "cli.verify-relations",
}

# labels that keep one span record per call
SPAN_LABELS = frozenset({
    "words.parse", "presentations.instantiate", "models.normalize", "models.words_equal",
    "models.translate", "models.parse_model_word", "models.verify_equation_bank",
    "characters.nu", "characters.sphere_point", "characters.character_from_json",
    "characters.model_character", "sigma.decide", "criterion.verify", "criterion.gen",
    "criterion.ball", "criterion.case_character", "cli.main", "cli.classify",
    "cli.verify-cert", "cli.verify-relations",
})


def fiber_length(state: tuple) -> int:
    """Letters in all free-group components of a layered normal form."""
    return sum(len(part) for part in state[:-2])


class Tracer:
    def __init__(self):
        self.stack: list[list] = []           # frames: [label, child time, span index]
        self.spans: list[list] = []           # [label, start, end, parent, op id]
        self.agg: dict[str, list] = {}        # label -> [calls, total s, self s]
        self.counts: dict[str, float] = {}    # named counters from the hooks
        self.op_stats: dict[int, dict] = {}   # op id -> per-op readouts
        self.op_id = -1
        self._restore: list[tuple[dict, str, object]] = []

    # -- op bracketing ---------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_stats[op_id] = {}
        self.stack.append(["op", 0.0, len(self.spans)])
        self.spans.append(["op", perf_counter(), None, None, op_id])

    def end_op(self) -> None:
        frame = self.stack.pop()
        self.spans[frame[2]][2] = perf_counter()
        self.op_stats[self.op_id]["child_s"] = frame[1]

    # -- counters --------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def op_peak(self, name: str, value: float) -> None:
        stats = self.op_stats.get(self.op_id)
        if stats is not None and value > stats.get(name, -1):
            stats[name] = value

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, label: str):
        stack, spans, agg = self.stack, self.spans, self.agg
        record = label in SPAN_LABELS
        hook = _HOOKS.get(label)
        totals = agg.setdefault(label, [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == label:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            if record:
                index = len(spans)
                spans.append([label, 0.0, 0.0, parent, tracer.op_id])
            else:
                index = parent
            frame = [label, 0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                totals[0] += 1
                totals[1] += took
                totals[2] += took - frame[1]
                if record:
                    span = spans[index]
                    span[1], span[2] = start, end
            if hook is not None:
                hook(tracer, args, kwargs, result, took)
            return result

        return wrapper

    def install(self) -> None:
        namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                      if name == "sigmabraid" or name.startswith("sigmabraid.")]
        for layer in LAYERS:
            module = _MODULES[layer]
            for name, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if name.startswith("_") and not (layer == "cli" and name.startswith("_cmd_")):
                    continue
                full = f"{layer}.{name}"
                wrapper = self._wrap(fn, _RENAMES.get(full, full))
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._restore.append((ns, key, fn))
                            ns[key] = wrapper

    def remove(self) -> None:
        for ns, key, fn in reversed(self._restore):
            ns[key] = fn
        self._restore.clear()

    # -- readouts --------------------------------------------------------

    def calls(self, label: str) -> int:
        return self.agg.get(label, [0])[0]

    def self_s(self, label: str) -> float:
        return self.agg.get(label, [0, 0.0, 0.0])[2]

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for label, (_, _, own) in self.agg.items():
            out[label.split(".", 1)[0]] += own
        return out

    def op_durations(self, label: str) -> dict[int, float]:
        """Summed duration of the label's spans per op id."""
        out: dict[int, float] = {}
        for name, start, end, _, op in self.spans:
            if name == label:
                out[op] = out.get(op, 0.0) + (end - start)
        return out


# ---------------------------------------------------------------------------
# Hooks: counts read off arguments and results at the layer boundary

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _hook_reduce(tr: Tracer, args, kwargs, result, took):
    tr.add("words.reduce.letters", len(result))


def _hook_instantiate(tr: Tracer, args, kwargs, result, took):
    tr.add("presentations.relations", len(result.relations))


def _hook_normalize(tr: Tracer, args, kwargs, result, took):
    fiber = fiber_length(result.state)
    tr.add("models.normalize.letters", len(_arg(args, kwargs, 1, "w")))
    tr.add("models.fiber_len_sum", fiber)
    tr.peak("models.fiber_len_peak", fiber)
    tr.op_peak("fiber_peak", fiber)


def _hook_decide(tr: Tracer, args, kwargs, result, took):
    group = _arg(args, kwargs, 0, "group")
    if group.surface == "S2" and group.family == "P":
        tr.peak("sigma.decide.S2.max_ms", took * 1e3)
    if result.membership == sigma.IN_SIGMA1 and result.witness is None:
        tr.add("sigma.insigma_uncertified")


def _hook_verify(tr: Tracer, args, kwargs, result, took):
    if not result.endpoints_checked:
        tr.add("criterion.endpoints_unchecked")


def _hook_ball(tr: Tracer, args, kwargs, result, took):
    tr.add("criterion.ball.vertices", result.vertex_count)
    if result.truncated:
        tr.add("criterion.ball.truncated")


_HOOKS = {
    "words.reduce": _hook_reduce,
    "presentations.instantiate": _hook_instantiate,
    "models.normalize": _hook_normalize,
    "sigma.decide": _hook_decide,
    "criterion.verify": _hook_verify,
    "criterion.ball": _hook_ball,
}
