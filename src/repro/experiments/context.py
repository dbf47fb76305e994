"""Shared evaluation context.

Most tables need the same expensive artifacts: the assembled kernel, the
extractor index, the existing Syzkaller corpus, the missing-spec scan, the
KernelGPT generation run over the incomplete handlers and the SyzDescribe
results over the same targets.  :class:`EvaluationContext` builds each of
them lazily and caches them so that running several experiments in one
process (the benchmark suite, the CLI runner) does the work once.

The context is engine-backed: every instance carries an
:class:`~repro.engine.ExecutionEngine` (serial by default) through which the
KernelGPT instance memoizes its LLM queries, extractor lookups and
generation sessions.  Lazy builders are guarded by a re-entrant lock, so
independent tables can run concurrently (the runner's ``--jobs`` flag) and
still build each shared artifact exactly once.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from ..baselines import SyzDescribe, build_syzkaller_corpus
from ..core import GenerationRun, KernelGPT, TargetSelection, select_target_handlers
from ..engine import ExecutionEngine
from ..extractor import KernelExtractor
from ..kernel import KernelCodebase, build_default_kernel
from ..llm import BackendPool, LLMBackend, OracleBackend, backend_for_profile, resilient_analyst
from ..syzlang import SpecCorpus
from .config import ExperimentConfig, quick


class EvaluationContext:
    """Lazily-built shared state for the evaluation."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        kernel: KernelCodebase | None = None,
        *,
        engine: ExecutionEngine | None = None,
        analysis_backend: LLMBackend | None = None,
    ):
        self.config = config or quick()
        self.engine = engine or ExecutionEngine(jobs=1)
        #: Injected analyst backend.  The job service sets this so every
        #: job's pipeline (including full experiments) routes its LLM
        #: traffic through the service's shared coalescing front door
        #: instead of building a private backend per context.
        self.analysis_backend = analysis_backend
        self._lock = threading.RLock()
        self._kernel = kernel
        self._extractor: KernelExtractor | None = None
        self._syzkaller: SpecCorpus | None = None
        self._selection: TargetSelection | None = None
        self._kernelgpt: KernelGPT | None = None
        self._generation_run: GenerationRun | None = None
        self._syzdescribe: SyzDescribe | None = None
        self._syzdescribe_results: dict | None = None

    def _build_once(self, attr: str, build):
        """Double-checked lazy construction of a shared artifact.

        The builder runs under the context lock so concurrent tables block
        until the artifact exists, then share the single instance.
        """
        value = getattr(self, attr)
        if value is None:
            with self._lock:
                value = getattr(self, attr)
                if value is None:
                    with self.engine.profile.measure(f"context/{attr.lstrip('_')}"):
                        value = build()
                    setattr(self, attr, value)
        return value

    # ------------------------------------------------------------ substrates
    @property
    def kernel(self) -> KernelCodebase:
        return self._build_once("_kernel", lambda: build_default_kernel(self.config.kernel_scale))

    @property
    def extractor(self) -> KernelExtractor:
        return self._build_once("_extractor", lambda: KernelExtractor(self.kernel))

    @property
    def syzkaller_corpus(self) -> SpecCorpus:
        return self._build_once("_syzkaller", lambda: build_syzkaller_corpus(self.kernel))

    @property
    def selection(self) -> TargetSelection:
        """Loaded handlers with missing descriptions (the §5.1 targets)."""
        return self._build_once(
            "_selection", lambda: select_target_handlers(self.kernel, self.syzkaller_corpus)
        )

    # ------------------------------------------------------------ generators
    def build_analysis_backend(self) -> LLMBackend:
        """The evaluation's analyst: plain oracle, or a kind-routed pool.

        With ``config.route_table`` set (``--route repair=gpt-3.5``) the
        analyst becomes a :class:`~repro.llm.BackendPool` whose default
        member is the paper's GPT-4 oracle plus one member per routed
        capability profile; the pool's kind lookup then steers every prompt
        of a routed kind — the repair stage, typically — to its profile,
        whatever repair mode is active.  Without a route table the plain
        single-backend oracle is used, exactly as before.  An injected
        ``analysis_backend`` (the serving layer's coalescing handle) wins
        over both.

        Resilience wrapping (``config.fault_plan`` / ``config.retry_spec``)
        applies outermost via :func:`~repro.llm.resilient_analyst`, so the
        pool's members only ever see the retry-converged clean traffic;
        ``config.breaker_threshold`` arms per-member circuit breakers inside
        the pool itself.
        """
        if self.analysis_backend is not None:
            return self.analysis_backend
        route_table = dict(self.config.route_table or ())
        if not route_table:
            return resilient_analyst(
                OracleBackend(),
                fault_plan=self.config.fault_plan,
                retry_spec=self.config.retry_spec,
            )
        members: dict[str, LLMBackend] = {"gpt-4": OracleBackend()}
        for label in route_table.values():
            if label not in members:
                members[label] = backend_for_profile(label)
        pool = BackendPool(
            members,
            default="gpt-4",
            routes=route_table,
            schedule=self.config.pool_schedule,
            breaker_threshold=self.config.breaker_threshold,
        )
        return resilient_analyst(
            pool,
            fault_plan=self.config.fault_plan,
            retry_spec=self.config.retry_spec,
        )

    @property
    def kernelgpt(self) -> KernelGPT:
        return self._build_once(
            "_kernelgpt",
            lambda: KernelGPT(
                self.kernel,
                self.build_analysis_backend(),
                extractor=self.extractor,
                engine=self.engine,
                repair_mode=self.config.repair_mode,
            ),
        )

    @property
    def generation_run(self) -> GenerationRun:
        """KernelGPT specifications for every incomplete handler."""
        return self._build_once(
            "_generation_run",
            lambda: self.kernelgpt.generate_for_handlers(
                list(self.selection.all_handlers), engine=self.engine
            ),
        )

    @property
    def syzdescribe(self) -> SyzDescribe:
        return self._build_once(
            "_syzdescribe", lambda: SyzDescribe(self.kernel, extractor=self.extractor)
        )

    @property
    def syzdescribe_results(self) -> dict:
        """SyzDescribe results for the incomplete *driver* handlers."""
        return self._build_once(
            "_syzdescribe_results",
            lambda: self.syzdescribe.analyze_all(list(self.selection.driver_handlers)),
        )

    # --------------------------------------------------------------- suites
    def kernelgpt_corpus(self) -> SpecCorpus:
        """KernelGPT's valid generated specs as a corpus keyed by handler."""
        corpus = SpecCorpus("kernelgpt")
        for handler, result in self.generation_run.results.items():
            if result.valid:
                corpus.add(handler, result.suite)
        return corpus

    def syzdescribe_corpus(self) -> SpecCorpus:
        corpus = SpecCorpus("syzdescribe")
        for handler, result in self.syzdescribe_results.items():
            if result.valid and result.suite is not None:
                corpus.add(handler, result.suite)
        return corpus


#: Serialises ``shared_context`` misses: ``lru_cache`` alone lets two
#: threads that miss at once each build (and one of them keep) a context.
_shared_lock = threading.Lock()


def shared_context(
    config: ExperimentConfig, store_spec: tuple[str, str | None] | None = None
) -> EvaluationContext:
    """The process-wide context for one config (report tasks, campaign workers).

    Keyed by the frozen config itself, so every task carrying the same config
    lands on one context per process, and process workers rebuild theirs from
    the config in their payload.  ``store_spec`` is the ``--store`` /
    ``--frozen`` pair, ``(store_dir, lockfile_or_None)``: the context gets a
    serial store-backed engine over the shared on-disk store, and a lockfile
    also pins the loads and swaps in the raising :class:`~repro.store.FrozenBackend`.
    """
    with _shared_lock:
        return _cached_context(config, store_spec)


@lru_cache(maxsize=4)
def _cached_context(
    config: ExperimentConfig, store_spec: tuple[str, str | None] | None
) -> EvaluationContext:
    context_engine = None
    if store_spec is not None:
        from ..store import ArtifactStore, FrozenLock, StoreBinding

        store_dir, frozen_path = store_spec
        frozen = FrozenLock.load(frozen_path) if frozen_path else None
        binding = StoreBinding(ArtifactStore(store_dir), frozen=frozen)
        context_engine = ExecutionEngine(jobs=1, store=binding)
    context = EvaluationContext(config, engine=context_engine)
    if store_spec is not None and store_spec[1]:
        from ..store import FrozenBackend

        context.analysis_backend = FrozenBackend(context.build_analysis_backend())
    return context


shared_context.cache_clear = _cached_context.cache_clear


__all__ = ["EvaluationContext", "shared_context"]
