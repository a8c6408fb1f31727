"""Corpus set-up is written once: the package loads a corpus file and
tokenizes a collection only in ``pipeline.load_corpus``, apart from the
journals-only ``priors`` command and the one-variant ``build_index``.
Config checks are written once too: each config dataclass is frozen and
checks itself when built, with no separate ``validate`` to call."""

from pathlib import Path

import pytest
from test_one_reader import call_sites

import taskrank
from taskrank import Bm25Params, ExpansionConfig, FusionConfig, PipelineConfig, RerankConfig

ALLOWED = {
    "load_collection": {("pipeline.py", "load_corpus"), ("cli.py", "cmd_priors")},
    "TokenizedCollection": {("pipeline.py", "load_corpus"), ("indexing.py", "build_index")},
}


@pytest.mark.parametrize("callee", sorted(ALLOWED))
def test_corpus_setup_is_called_only_by_load_corpus(callee):
    package = Path(taskrank.__file__).parent
    sites = set().union(*(call_sites(path, callee) for path in sorted(package.glob("*.py"))))
    assert ("pipeline.py", "load_corpus") in sites
    assert sites <= ALLOWED[callee], sorted(sites - ALLOWED[callee])


@pytest.mark.parametrize("config", [Bm25Params, FusionConfig, RerankConfig, ExpansionConfig,
                                    PipelineConfig], ids=lambda cls: cls.__name__)
def test_config_dataclasses_are_frozen_and_check_themselves_when_built(config):
    assert config.__dataclass_params__.frozen
    assert "__post_init__" in vars(config)
    assert not hasattr(config, "validate")
