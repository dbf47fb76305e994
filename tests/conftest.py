"""Shared fixtures: a small kernel, its extractor, and generation artifacts.

Everything expensive is session-scoped so the suite stays fast while every
module exercises the real end-to-end stack (no mocks of our own substrates).
"""

import concurrent.futures

import pytest

from repro.baselines import SyzDescribe, build_syzkaller_corpus
from repro.core import GenerationRun, KernelGPT
from repro.extractor import KernelExtractor
from repro.kernel import build_default_kernel
from repro.llm import OracleBackend


@pytest.fixture(scope="session")
def small_kernel():
    return build_default_kernel("small")


@pytest.fixture(scope="session")
def extractor(small_kernel):
    return KernelExtractor(small_kernel)


@pytest.fixture(scope="session")
def kernelgpt(small_kernel, extractor):
    return KernelGPT(small_kernel, OracleBackend(), extractor=extractor)


@pytest.fixture(scope="session")
def syzdescribe(small_kernel, extractor):
    return SyzDescribe(small_kernel, extractor=extractor)


@pytest.fixture(scope="session")
def syzkaller_corpus(small_kernel):
    return build_syzkaller_corpus(small_kernel)


@pytest.fixture(scope="session")
def dm_result(kernelgpt):
    return kernelgpt.generate_for_handler("dm_ctl_fops")


@pytest.fixture(scope="session")
def kvm_result(kernelgpt):
    return kernelgpt.generate_for_handler("kvm_fops")


@pytest.fixture(scope="session")
def rds_result(kernelgpt):
    return kernelgpt.generate_for_handler("rds_proto_ops")


@pytest.fixture(scope="session")
def generate_on_schedule():
    """Generate handlers on one of the two schedules generation runs on.

    ``serial`` is the loop of ``generate_for_handlers``, one session at a
    time.  ``thread`` runs each handler as its own session on a pool of
    ``jobs`` threads over the one generator and its memo, as a service
    generation job does; the run keeps handler order.
    """

    def generate(generator, handlers, kind, jobs):
        if kind == "serial":
            return generator.generate_for_handlers(handlers)
        with concurrent.futures.ThreadPoolExecutor(jobs) as sessions:
            futures = [sessions.submit(generator.generate_for_handler, h) for h in handlers]
            return GenerationRun({h: f.result() for h, f in zip(handlers, futures)})

    return generate
