import math
import random
from collections import Counter

import pytest

from taskrank.corpus import Collection, Document
from taskrank.errors import EmptyQuery
from taskrank.indexing import IndexVariant, Tokenizer, build_index
from taskrank.querygen import (
    ConfidenceMode,
    ExpansionConfig,
    LexiconExtractor,
    QueryBase,
    generate_plain,
    generate_task_expanded,
    generate_udel,
    select_task_terms,
)
from taskrank.tasks import AssignmentSource, Task, TaskAssignment, Topic

UDEL_LEXICON = LexiconExtractor(["coronavirus", "origin", "covid-19"])


def assignment(confidence=3):
    return TaskAssignment(
        topic_id=1, task_id="t", source=AssignmentSource.MANUAL, confidence=confidence
    )


def test_plain_identical_across_variants():
    topic = Topic(topic_id=1, query="coronavirus origin")
    generated = generate_plain(topic)
    for variant in IndexVariant:
        assert generated.tokens(variant) == ["coronavirus", "origin"]


def test_plain_stopword_only_query_rejected():
    topic = Topic(topic_id=1, query="the of and")
    with pytest.raises(EmptyQuery):
        generate_plain(topic)


def test_plain_variant_equality_property():
    rng = random.Random(3)
    vocab = ["viral", "vaccine", "spread", "antibody", "testing", "outbreak"]
    for i in range(100):
        topic = Topic(
            topic_id=i, query=" ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        )
        generated = generate_plain(topic)
        lists = [generated.tokens(v) for v in IndexVariant]
        assert lists[0] == lists[1] == lists[2]


def test_udel_concatenates_and_filters_keeping_duplicates():
    topic = Topic(
        topic_id=1,
        query="coronavirus origin",
        question="what is the origin of COVID-19",
    )
    generated = generate_udel(topic, UDEL_LEXICON)
    expected = ["coronavirus", "origin", "origin", "covid", "19"]
    for variant in IndexVariant:
        assert generated.tokens(variant) == expected
    assert not generated.fallback


def test_udel_empty_extraction_falls_back_to_plain():
    topic = Topic(topic_id=1, query="influenza burden", question="seasonal load")
    generated = generate_udel(topic, UDEL_LEXICON)
    assert generated.fallback
    assert generated.tokens(IndexVariant.FULL_TEXT) == ["influenza", "burden"]


def test_udel_matches_set_filter_oracle():
    # Single-token lexicon, so the oracle is a plain membership filter over
    # the concatenated fields.
    lexicon_terms = ["viral", "vaccine", "antibody", "transmission", "serology"]
    extractor = LexiconExtractor(lexicon_terms)
    allowed = set(lexicon_terms)
    rng = random.Random(11)
    filler = ["what", "about", "report", "study"]
    for i in range(20):
        words_q = rng.choices(lexicon_terms + filler, k=rng.randint(1, 4))
        words_question = rng.choices(lexicon_terms + filler, k=rng.randint(2, 8))
        topic = Topic(
            topic_id=i, query=" ".join(words_q), question=" ".join(words_question)
        )
        generated = generate_udel(topic, extractor)
        oracle = [
            w for w in (words_q + words_question) if w in allowed
        ]
        if not oracle:
            assert generated.fallback
            continue
        assert Counter(generated.tokens(IndexVariant.FULL_TEXT)) == Counter(oracle)


def test_lexicon_extractor_greedy_longest_match():
    extractor = LexiconExtractor(["incubation", "incubation period", "period"])
    assert extractor.extract("the incubation period varies") == ["incubation period"]
    assert extractor.extract("an incubation phase") == ["incubation"]


def abstracts_collection(texts):
    docs = [Document(doc_id=f"a{i:02d}", abstract=t) for i, t in enumerate(texts)]
    return Collection.from_documents(docs)


def test_select_task_terms_zero_n():
    index = build_index(abstracts_collection(["alpha"]), IndexVariant.TITLE_ABSTRACT)
    task = Task(task_id="t", title="", description="alpha beta")
    assert select_task_terms(task, index, LexiconExtractor(["alpha", "beta"]), 0) == []


def test_select_task_terms_tf_breaks_equal_df():
    # aword appears 3x in the description, bword once; both have df=1.
    texts = ["aword filler", "bword filler"] + ["filler only"] * 8
    index = build_index(abstracts_collection(texts), IndexVariant.TITLE_ABSTRACT)
    task = Task(task_id="t", title="", description="aword aword aword bword")
    terms = select_task_terms(task, index, LexiconExtractor(["aword", "bword"]), 2)
    assert terms == ["aword", "bword"]


def test_select_task_terms_matches_brute_force_oracle():
    rng = random.Random(29)
    vocab = [f"w{i:02d}" for i in range(30)]
    texts = [" ".join(rng.choices(vocab, k=rng.randint(4, 12))) for _ in range(50)]
    index = build_index(abstracts_collection(texts), IndexVariant.TITLE_ABSTRACT)
    tokenizer = Tokenizer()
    description = " ".join(rng.choices(vocab, k=40))
    task = Task(task_id="t", title="", description=description)
    extractor = LexiconExtractor(vocab)

    tf = Counter(description.split())
    unit_tokens = {i: set(tokenizer.tokenize(t)) for i, t in enumerate(texts)}
    scored = []
    for term in tf:
        df = sum(1 for tokens in unit_tokens.values() if term in tokens)
        scored.append((tf[term] * math.log(50 / (1 + df)), term))
    scored.sort(key=lambda item: (-item[0], item[1]))
    oracle = [term for _, term in scored[:3]]

    assert select_task_terms(task, index, extractor, 3) == oracle


def test_select_task_terms_output_within_candidates():
    texts = ["viral vaccine antibody", "serology vaccine"]
    index = build_index(abstracts_collection(texts), IndexVariant.TITLE_ABSTRACT)
    task = Task(task_id="t", title="", description="vaccine antibody vaccine novel")
    extractor = LexiconExtractor(["vaccine", "antibody", "novel", "serology"])
    terms = select_task_terms(task, index, extractor, 10)
    candidates = set(extractor.extract(task.description))
    assert set(terms) <= candidates
    assert len(terms) == min(10, len(candidates))


def test_expansion_composition_with_routing():
    topic = Topic(topic_id=1, query="qalpha qbeta")
    config = ExpansionConfig(n_task_terms=3, dup_query=3, dup_task=1)
    generated = generate_task_expanded(
        topic, QueryBase.PLAIN, ["tgamma"], config, assignment=assignment()
    )
    full = ["qalpha"] * 3 + ["qbeta"] * 3 + ["tgamma"]
    core = ["qalpha"] * 3 + ["qbeta"] * 3
    assert generated.tokens(IndexVariant.FULL_TEXT) == full
    assert generated.tokens(IndexVariant.TITLE_ABSTRACT) == core
    assert generated.tokens(IndexVariant.TITLE_ABSTRACT_PARAGRAPH) == core


def test_expansion_without_routing_expands_everywhere():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(route_task_terms_fulltext_only=False, dup_query=1)
    generated = generate_task_expanded(
        topic, QueryBase.PLAIN, ["tgamma"], config, assignment=assignment()
    )
    for variant in IndexVariant:
        assert generated.tokens(variant) == ["qalpha", "tgamma"]


def test_gate_below_threshold_drops_task_terms():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(
        dup_query=1, confidence_mode=ConfidenceMode.GATE, gate_threshold=3
    )
    generated = generate_task_expanded(
        topic, QueryBase.PLAIN, ["tgamma"], config, assignment=assignment(confidence=1)
    )
    assert generated.tokens(IndexVariant.FULL_TEXT) == ["qalpha"]


def test_gate_at_threshold_keeps_task_terms():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(
        dup_query=1, confidence_mode=ConfidenceMode.GATE, gate_threshold=2
    )
    generated = generate_task_expanded(
        topic, QueryBase.PLAIN, ["tgamma"], config, assignment=assignment(confidence=2)
    )
    assert generated.tokens(IndexVariant.FULL_TEXT) == ["qalpha", "tgamma"]


def test_proportional_scales_task_duplication():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(
        dup_query=1, dup_task=1, confidence_mode=ConfidenceMode.PROPORTIONAL
    )
    generated = generate_task_expanded(
        topic, QueryBase.PLAIN, ["tgamma"], config, assignment=assignment(confidence=2)
    )
    counts = Counter(generated.tokens(IndexVariant.FULL_TEXT))
    assert counts["tgamma"] == 2


def test_expansion_multiplicities_exact():
    topic = Topic(
        topic_id=1, query="coronavirus origin", question="covid-19 origin genome"
    )
    extractor = LexiconExtractor(["coronavirus", "origin", "covid-19", "genome"])
    config = ExpansionConfig(n_task_terms=3, dup_query=3, dup_question=3, dup_task=1)
    generated = generate_task_expanded(
        topic,
        QueryBase.UDEL,
        ["serology", "antibody"],
        config,
        assignment=assignment(),
        extractor=extractor,
    )
    counts = Counter(generated.tokens(IndexVariant.FULL_TEXT))
    # query side: coronavirus, origin; question side: covid,19,origin,genome
    assert counts["coronavirus"] == 3
    assert counts["origin"] == 6  # once per field, each duplicated 3x
    assert counts["covid"] == 3 and counts["19"] == 3 and counts["genome"] == 3
    assert counts["serology"] == 1 and counts["antibody"] == 1
    core_counts = Counter(generated.tokens(IndexVariant.TITLE_ABSTRACT))
    assert core_counts["serology"] == 0 and core_counts["antibody"] == 0


def test_no_task_terms_equals_base_at_unit_duplication():
    topic = Topic(topic_id=1, query="coronavirus origin")
    config = ExpansionConfig(n_task_terms=0, dup_query=1)
    generated = generate_task_expanded(
        topic, QueryBase.PLAIN, [], config, assignment=assignment()
    )
    base = generate_plain(topic)
    for variant in IndexVariant:
        assert generated.tokens(variant) == base.tokens(variant)


def test_routing_keeps_non_fulltext_lists_fixed():
    topic = Topic(topic_id=1, query="coronavirus origin")
    config = ExpansionConfig(n_task_terms=3)
    with_terms = generate_task_expanded(
        topic, QueryBase.PLAIN, ["serology"], config, assignment=assignment()
    )
    without_terms = generate_task_expanded(
        topic, QueryBase.PLAIN, [], config, assignment=assignment()
    )
    for variant in (IndexVariant.TITLE_ABSTRACT, IndexVariant.TITLE_ABSTRACT_PARAGRAPH):
        assert with_terms.tokens(variant) == without_terms.tokens(variant)


def test_too_many_task_terms_rejected():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(n_task_terms=1)
    with pytest.raises(ValueError):
        generate_task_expanded(
            topic, QueryBase.PLAIN, ["a", "b"], config, assignment=assignment()
        )


def test_expansion_config_validation():
    with pytest.raises(ValueError):
        ExpansionConfig(dup_query=0)
    with pytest.raises(ValueError):
        ExpansionConfig(n_task_terms=-1)
    with pytest.raises(ValueError):
        ExpansionConfig(dup_task=0)


def test_multi_token_task_terms_are_tokenized():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(dup_query=1, dup_task=2)
    generated = generate_task_expanded(
        topic, QueryBase.PLAIN, ["covid 19"], config, assignment=assignment()
    )
    assert generated.tokens(IndexVariant.FULL_TEXT) == [
        "qalpha", "covid", "covid", "19", "19",
    ]
