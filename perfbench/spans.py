"""In-memory spans around calls into taskrank's modules, for the traced run.

Spans are recorded from outside the library: ``install`` replaces the names
that ``taskrank.pipeline``, ``taskrank.cli`` and ``taskrank.evaluation``
import or define with timing wrappers, and ``uninstall`` puts the originals
back. A name that no longer exists is reported as unmeasured instead of
failing the run, so a refactor of the library cannot break the end-to-end
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from collections import defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


class Tracer:
    """Spans as ``[id, name, start, end, parent, topic]`` plus named counters.

    ``run_topic`` executes on the pipeline's pool thread, whose own stack is
    empty; its spans take the innermost span open on the main thread as
    their parent, which is sound because the pool has one worker.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, topic=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        if topic is None and parent is not None:
            topic = parent[5]
        span = [len(self.spans), name, time.perf_counter(), None,
                parent[0] if parent is not None else None, topic]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()

    def inside(self, prefix: str) -> bool:
        """Whether a span whose name starts with ``prefix`` is open here."""
        return any(s[1].startswith(prefix) for s in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def take(self) -> tuple[list[list], dict[str, float]]:
        """Hand over the spans and counters recorded since the last take."""
        spans, counters = self.spans, dict(self.counters)
        self.spans, self.counters = [], defaultdict(float)
        return spans, counters


def write_spans(path: str, cycles: list[list[list]]) -> None:
    """One JSON line per span; span ids and parents are per cycle."""
    keys = ("id", "name", "start", "end", "parent", "topic")
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(cycles):
            for span in spans:
                fh.write(json.dumps({"cycle": number, **dict(zip(keys, span))}) + "\n")


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out = {}
    for span in spans:
        start, end = span[2], span[3]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(span[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span[0]] = (end - start) - covered
    return out


# --- count hooks: run after the wrapped call, inside a "trace.hook" span so
# their cost is excluded from every layer's self time.

def _variant(bound) -> str:
    return bound.arguments["variant"].value


def _variant_of(bound) -> str:
    if "variant" in bound.arguments:
        return _variant(bound)
    return bound.arguments["index"].variant.value


def _on_build(tracer, bound, result, extra):
    v = _variant(bound)
    tracer.count("indexing.builds")
    tracer.maximum(f"indexing.units.{v}", result.unit_count)
    tracer.maximum(f"indexing.vocab.{v}", len(result.postings))
    tracer.maximum(f"indexing.rss_mb.{v}", extra)


def _before_search(tracer, bound):
    index = bound.arguments["index"]
    return sum(index.doc_freq(t) for t in bound.arguments["query_tokens"])


def _on_search(tracer, bound, result, extra):
    tracer.count(f"indexing.postings_scanned.{bound.arguments['index'].variant.value}", extra)


def _on_generate(tracer, bound, result, extra):
    from taskrank.indexing import IndexVariant
    for v in IndexVariant:
        tracer.count(f"querygen.query_tokens.{v.value}", len(result.tokens(v)))
    tracer.count("querygen.queries")
    tracer.count("querygen.fallbacks", int(result.fallback))


def _before_rrf(tracer, bound):
    return sum(len(r) for r in bound.arguments["rankings"])


def _on_rrf(tracer, bound, result, extra):
    tracer.count("fusion.calls")
    tracer.count("fusion.input_docs", extra)


def _on_rerank_journal(tracer, bound, result, extra):
    table, collection = bound.arguments["table"], bound.arguments["collection"]
    from taskrank.rerank import normalize_journal
    covered = 0
    for doc_id, _ in bound.arguments["ranking"]:
        doc = collection.get(doc_id)
        covered += doc is not None and normalize_journal(doc.journal) in table.scores
    tracer.count("rerank.docs", len(bound.arguments["ranking"]))
    tracer.count("rerank.docs_with_prior", covered)


def _on_load(tracer, bound, result, extra):
    tracer.maximum("corpus.docs", len(result))
    tracer.maximum("corpus.skipped", result.skipped_records)
    tracer.maximum("corpus.bytes", os.path.getsize(bound.arguments["path"]))


def _rss_before(tracer, bound):
    return rss_mb()


def _rss_growth(tracer, bound, result, before):
    _on_build(tracer, bound, result, rss_mb() - before)


# (module, attribute, span name, before hook, after hook). Attributes named
# "Class.method" are patched on the class. A span name ending in "." gets the
# call's index variant appended.
PATCHES = [
    ("taskrank.pipeline", "load_collection", "corpus.load", None, _on_load),
    ("taskrank.pipeline", "load_topics", "tasks.load", None, None),
    ("taskrank.pipeline", "load_tasks", "tasks.load", None, None),
    ("taskrank.pipeline", "load_manual_map", "tasks.load", None, None),
    ("taskrank.pipeline", "classify_topics", "tasks.classify", None, None),
    ("taskrank.pipeline", "InvertedIndex", "indexing.build.", _rss_before, _rss_growth),
    ("taskrank.pipeline", "search", "indexing.search.", _before_search, _on_search),
    ("taskrank.pipeline", "generate_plain", "querygen.generate", None, _on_generate),
    ("taskrank.pipeline", "generate_udel", "querygen.generate", None, _on_generate),
    ("taskrank.pipeline", "generate_task_expanded", "querygen.generate", None, _on_generate),
    ("taskrank.pipeline", "select_task_terms", "querygen.select_task_terms", None, None),
    ("taskrank.pipeline", "rrf_fuse", "fusion.rrf", _before_rrf, _on_rrf),
    ("taskrank.pipeline", "rerank_by_journal", "rerank.rerank", None, _on_rerank_journal),
    ("taskrank.pipeline", "rerank_by_task_vector", "rerank.rerank", None, None),
    ("taskrank.pipeline", "build_journal_priors", "rerank.build_priors", None, None),
    ("taskrank.pipeline", "build_per_task_priors", "rerank.build_priors", None, None),
    ("taskrank.pipeline", "parse_qrels", "evaluation.parse_qrels", None, None),
    ("taskrank.pipeline", "Pipeline.__init__", "pipeline.setup", None, None),
    ("taskrank.pipeline", "Pipeline.run", "pipeline.run", None, None),
    ("taskrank.pipeline", "Pipeline.run_topic", "pipeline.topic", None, None),
    ("taskrank.cli", "execute_run", "cli.execute_run", None, None),
    ("taskrank.cli", "sweep", "evaluation.sweep", None, None),
    ("taskrank.cli", "parse_qrels", "evaluation.parse_qrels", None, None),
    ("taskrank.evaluation", "evaluate_run", "evaluation.evaluate", None, None),
    ("taskrank.evaluation", "write_run", "evaluation.write_run", None, None),
    ("taskrank.evaluation", "parse_qrels", "evaluation.parse_qrels", None, None),
    ("taskrank.evaluation", "residual_filter", "evaluation.residual_filter", None, None),
]


def _wrap(tracer, fn, name, before, after, signature):
    per_variant = name.endswith(".")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = None
        extra = None
        if per_variant or before or after:
            try:
                bound = signature.bind(*args, **kwargs)
            except TypeError as exc:
                tracer.count(f"unmeasured:{name}:the call no longer matches: {exc}")
                return fn(*args, **kwargs)
        if before:
            extra = _guarded(tracer, name, before, tracer, bound)
        span_name = name
        if per_variant:
            span_name += _guarded(tracer, name, _variant_of, bound) or "unknown"
        topic = None
        if name == "pipeline.topic" and len(args) > 1:
            topic = getattr(args[1], "topic_id", None)
        span = tracer.open(span_name, topic)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after:
            hook = tracer.open("trace.hook")
            try:
                _guarded(tracer, name, after, tracer, bound, result, extra)
            finally:
                tracer.close(hook)
        return result

    return wrapper


def _guarded(tracer, name, hook, *args):
    """Run a count hook; a library change it cannot follow marks it unmeasured."""
    try:
        return hook(*args)
    except (AttributeError, KeyError, TypeError) as exc:
        tracer.count(f"unmeasured:{name}:{type(exc).__name__}: {exc}")
        return None


class Patches:
    """Installs the wrappers in ``PATCHES``; remembers what it replaced.

    ``unmeasured`` maps a metric-name prefix to the reason its metrics are
    missing: a layer whose name could not be patched loses all of them.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.replaced: list[tuple[object, str, object]] = []
        self.unmeasured: dict[str, str] = {}

    def install(self) -> None:
        for module_name, attr, name, before, after in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, leaf)
                signature = inspect.signature(original)
            except (AttributeError, ValueError, TypeError) as exc:
                layer = name.split(".")[0] + "."
                self.unmeasured[layer] = (f"cannot patch {module_name}.{attr}: "
                                          f"{type(exc).__name__}: {exc}")
                continue
            setattr(owner, leaf, _wrap(self.tracer, original, name, before, after, signature))
            self.replaced.append((owner, leaf, original))
        self._inject_tokenizer()

    def _inject_tokenizer(self) -> None:
        """Give every Pipeline a counting tokenizer unless one is passed."""
        from taskrank import pipeline
        try:
            cls = pipeline.Pipeline
            init = inspect.getattr_static(cls, "__init__")
            accepts = "tokenizer" in inspect.signature(init).parameters
        except (AttributeError, ValueError, TypeError) as exc:
            self.unmeasured["indexing.tokenize"] = f"cannot patch: {exc}"
            return
        if not accepts:
            self.unmeasured["indexing.tokenize"] = "Pipeline takes no tokenizer"
            return
        tokenizer = counting_tokenizer(self.tracer)

        @functools.wraps(init)
        def with_tokenizer(self_, *args, **kwargs):
            if len(args) < 2 and kwargs.get("tokenizer") is None:
                kwargs["tokenizer"] = tokenizer
            return init(self_, *args, **kwargs)

        cls.__init__ = with_tokenizer
        self.replaced.append((cls, "__init__", init))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self.replaced):
            setattr(owner, leaf, original)
        self.replaced.clear()


def counting_tokenizer(tracer: Tracer):
    """A taskrank Tokenizer that counts calls, tokens and time per side."""
    from taskrank.indexing import Tokenizer

    class CountingTokenizer(Tokenizer):
        def tokenize(self, text):
            start = time.perf_counter()
            tokens = super().tokenize(text)
            side = "indexing" if tracer.inside("indexing.build.") else "query"
            tracer.count(f"{side}.tokenize_s", time.perf_counter() - start)
            tracer.count(f"{side}.tokenize_calls")
            tracer.count(f"{side}.tokens", len(tokens))
            return tokens

    return CountingTokenizer()
