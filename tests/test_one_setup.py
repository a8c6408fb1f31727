"""Corpus set-up is written once: the package loads a corpus file and
tokenizes a collection only in ``pipeline.load_corpus``, apart from the
journals-only ``priors`` command and the one-variant ``build_index``."""

from pathlib import Path

import pytest
from test_one_reader import call_sites

import taskrank

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
