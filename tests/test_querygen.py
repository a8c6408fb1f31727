import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrank.corpus import Document
from taskrank.errors import MalformedRow, TaskRankError
from taskrank.indexing import IndexVariant, Tokenizer, build_index
from taskrank.querygen import (
    ConfidenceMode,
    ExpansionConfig,
    LexiconExtractor,
    generate_plain,
    generate_task_expanded,
    generate_udel,
    select_task_terms,
)
from taskrank.tasks import Task, TaskAssignment, Topic

UDEL_LEXICON = LexiconExtractor(["coronavirus", "origin", "covid-19"])


def assignment(confidence=3):
    return TaskAssignment(topic_id=1, task_id="t", confidence=confidence)


def test_plain_identical_across_variants():
    topic = Topic(topic_id=1, query="coronavirus origin")
    generated = generate_plain(topic)
    for variant in IndexVariant:
        assert generated.tokens(variant) == ["coronavirus", "origin"]


def test_plain_stopword_only_query_rejected():
    topic = Topic(topic_id=1, query="the of and")
    with pytest.raises(TaskRankError, match="^topic 1: query has no indexable tokens$"):
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


def test_a_term_of_five_words_matches_before_its_four_word_prefix():
    extractor = LexiconExtractor(["severe acute respiratory syndrome coronavirus",
                                  "severe acute respiratory syndrome", "acute respiratory"])
    assert len(extractor) == 3
    assert extractor.extract("a severe acute respiratory syndrome coronavirus strain") == [
        "severe acute respiratory syndrome coronavirus"]
    assert extractor.extract("severe acute respiratory syndrome virus") == [
        "severe acute respiratory syndrome"]


def test_a_lexicon_line_without_a_word_is_malformed_at_its_line(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("severe acute respiratory syndrome coronavirus\n---\nacute respiratory\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRow, match="term has no") as excinfo:
        LexiconExtractor.from_file(path)
    assert (excinfo.value.path, excinfo.value.line_no) == (path, 2)


def abstracts_collection(texts):
    return [Document(doc_id=f"a{i:02d}", abstract=t) for i, t in enumerate(texts)]


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
        topic, ["tgamma"], config, assignment=assignment()
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
        topic, ["tgamma"], config, assignment=assignment()
    )
    for variant in IndexVariant:
        assert generated.tokens(variant) == ["qalpha", "tgamma"]


def test_gate_below_threshold_drops_task_terms():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(
        dup_query=1, confidence_mode=ConfidenceMode.GATE, gate_threshold=3
    )
    generated = generate_task_expanded(
        topic, ["tgamma"], config, assignment=assignment(confidence=1)
    )
    assert generated.tokens(IndexVariant.FULL_TEXT) == ["qalpha"]


def test_gate_at_threshold_keeps_task_terms():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(
        dup_query=1, confidence_mode=ConfidenceMode.GATE, gate_threshold=2
    )
    generated = generate_task_expanded(
        topic, ["tgamma"], config, assignment=assignment(confidence=2)
    )
    assert generated.tokens(IndexVariant.FULL_TEXT) == ["qalpha", "tgamma"]


def test_proportional_scales_task_duplication():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(
        dup_query=1, dup_task=1, confidence_mode=ConfidenceMode.PROPORTIONAL
    )
    generated = generate_task_expanded(
        topic, ["tgamma"], config, assignment=assignment(confidence=2)
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
        topic, [], config, assignment=assignment()
    )
    base = generate_plain(topic)
    for variant in IndexVariant:
        assert generated.tokens(variant) == base.tokens(variant)


def test_routing_keeps_non_fulltext_lists_fixed():
    topic = Topic(topic_id=1, query="coronavirus origin")
    config = ExpansionConfig(n_task_terms=3)
    with_terms = generate_task_expanded(
        topic, ["serology"], config, assignment=assignment()
    )
    without_terms = generate_task_expanded(
        topic, [], config, assignment=assignment()
    )
    for variant in (IndexVariant.TITLE_ABSTRACT, IndexVariant.TITLE_ABSTRACT_PARAGRAPH):
        assert with_terms.tokens(variant) == without_terms.tokens(variant)


def test_too_many_task_terms_rejected():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(n_task_terms=1)
    with pytest.raises(ValueError):
        generate_task_expanded(
            topic, ["a", "b"], config, assignment=assignment()
        )


@pytest.mark.parametrize("changes, message", [
    ({"dup_query": 0}, "dup_query must be >= 1"),
    ({"n_task_terms": -1}, "n_task_terms must be >= 0"),
    ({"dup_task": 0}, "dup_task must be >= 1"),
    ({"dup_question": -1}, "dup_question must be >= 0"),
    ({"gate_threshold": 4}, "gate_threshold must be 1, 2 or 3"),
], ids=["dup_query", "n_task_terms", "dup_task", "dup_question", "gate_threshold"])
def test_expansion_config_validation(changes, message):
    with pytest.raises(ValueError, match=message):
        ExpansionConfig(**changes)


def test_multi_token_task_terms_are_tokenized():
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(dup_query=1, dup_task=2)
    generated = generate_task_expanded(
        topic, ["covid 19"], config, assignment=assignment()
    )
    assert generated.tokens(IndexVariant.FULL_TEXT) == [
        "qalpha", "covid", "covid", "19", "19",
    ]


# Single-token lexicon terms, so that udel extraction is a membership filter
# and every word is its own token.
TERM_WORDS = ["zalpha", "zbeta", "zgamma", "zdelta"]
OTHER_WORDS = ["yfoo", "ybar", "ybaz"]
TERM_LEXICON = LexiconExtractor(TERM_WORDS)
words = st.lists(st.sampled_from(TERM_WORDS + OTHER_WORDS), max_size=6)


def oracle_tokens(query, question, task_terms, udel, config, confidence, variant,
                  term_words=TERM_WORDS):
    """One index's query list, from the rules: each query token dup_query
    times in place, then each question token dup_question times, then each
    task-term token dup_task times, on full text only unless routing is off.
    With ``udel`` the base keeps the lexicon words (``term_words``, one-word
    terms) of each field, or else the plain query; without, it keeps the
    query alone."""
    query_kept, question_kept = query, []
    if udel:
        terms_q = [w for w in query if w in term_words]
        terms_question = [w for w in question if w in term_words]
        if terms_q or terms_question:
            query_kept, question_kept = terms_q, terms_question
    dup_task = config.dup_task
    if config.confidence_mode is ConfidenceMode.GATE and confidence < config.gate_threshold:
        dup_task = 0
    if config.confidence_mode is ConfidenceMode.PROPORTIONAL:
        dup_task *= confidence
    tokens = []
    for sources, dup in [(query_kept, config.dup_query), (question_kept, config.dup_question)]:
        for word in sources:
            tokens += [word] * dup
    if variant is IndexVariant.FULL_TEXT or not config.route_task_terms_fulltext_only:
        for term in task_terms:
            for word in term.split():
                tokens += [word] * dup_task
    return tokens


@settings(max_examples=300, deadline=None)
@given(query=words.filter(bool), question=words,
       task_terms=st.lists(st.lists(st.sampled_from(TERM_WORDS + OTHER_WORDS), min_size=1,
                                    max_size=2).map(" ".join), max_size=4),
       udel=st.booleans(), spare_terms=st.integers(0, 2),
       dups=st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(1, 4)),
       mode=st.sampled_from(ConfidenceMode), threshold=st.integers(1, 3),
       confidence=st.integers(1, 3), route=st.booleans())
def test_task_expanded_tokens_follow_the_duplication_and_routing_rules(
        query, question, task_terms, udel, spare_terms, dups, mode, threshold, confidence,
        route):
    topic = Topic(topic_id=1, query=" ".join(query), question=" ".join(question))
    config = ExpansionConfig(n_task_terms=len(task_terms) + spare_terms, dup_query=dups[0],
                             dup_question=dups[1], dup_task=dups[2], confidence_mode=mode,
                             gate_threshold=threshold, route_task_terms_fulltext_only=route)
    generated = generate_task_expanded(
        topic, task_terms, config, assignment=assignment(confidence),
        extractor=TERM_LEXICON if udel else None)
    for variant in IndexVariant:
        assert generated.tokens(variant) == oracle_tokens(
            query, question, task_terms, udel, config, confidence, variant)
    has_terms = any(w in TERM_WORDS for w in query + question)
    assert generated.fallback == (udel and not has_terms)

    # With no task terms and unit duplication, the base generators give the
    # same value.
    unit = ExpansionConfig(n_task_terms=0, dup_query=1, dup_question=1)
    plain = generate_task_expanded(topic, [], unit)
    with_lexicon = generate_task_expanded(topic, [], unit, extractor=TERM_LEXICON)
    assert generate_plain(topic) == plain and hash(generate_plain(topic)) == hash(plain)
    assert generate_udel(topic, TERM_LEXICON) == with_lexicon
    assert hash(generate_udel(topic, TERM_LEXICON)) == hash(with_lexicon)


def test_queries_with_different_tokens_compare_unequal():
    assert (generate_plain(Topic(topic_id=1, query="coronavirus origin"))
            != generate_plain(Topic(topic_id=2, query="vaccine trial")))
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(dup_query=1)
    with_terms = generate_task_expanded(topic, ["tgamma"], config)
    assert with_terms != generate_task_expanded(topic, [], config)
    assert with_terms.core == ("qalpha",) and with_terms.expansion == ("tgamma",)


@pytest.mark.parametrize("mode", [ConfidenceMode.GATE, ConfidenceMode.PROPORTIONAL])
def test_confidence_modes_need_an_annotator_confidence(mode):
    topic = Topic(topic_id=1, query="qalpha")
    config = ExpansionConfig(dup_query=1, confidence_mode=mode)
    for classified in [None, TaskAssignment(topic_id=1, task_id="t")]:
        with pytest.raises(ValueError, match="annotator's confidence"):
            generate_task_expanded(topic, ["tgamma"], config,
                                   assignment=classified)
