from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    RecordingBackend,
    fixture_corpus,
    make_eval_question,
    rafs_generic_entries,
    tree_entries_for,
)
from rare.actions import (
    ACTION_SPECS,
    PromptLibrary,
    Scope,
    action_request,
    default_prompts,
    execute_action,
    extract_answer,
    parse_first_step,
    parse_queries,
    parse_sub_qa,
    render_documents,
    valid_actions,
)
from rare.errors import NoViableChildError, ValidationError
from rare.lm import ScriptEntry, ScriptedBackend
from rare.retrieval import build_index
from rare.types import (SUBQUESTION_ACTIONS, ActionKind, ActionStep, DocumentRef, Question,
                        SearchConfig, Trajectory, derive_seed)

A = ActionKind


@pytest.fixture
def question():
    return make_eval_question("q01", "B")


@pytest.fixture
def backend(question):
    return ScriptedBackend(tree_entries_for(question, "B") + rafs_generic_entries())


@pytest.fixture
def index():
    return build_index(fixture_corpus())


CFG = SearchConfig()


@pytest.fixture
def scope(question, backend, index):
    return Scope(question, CFG, backend, index)


def ctx_after(question, *steps):
    """Context after each ``(step, answer)`` pair in turn."""
    ctx = Trajectory(question)
    for step, answer in steps:
        ctx = ctx.extend(step, answer)
    return ctx


def nonterminal(kind, output="text", sub_question=None):
    return ActionStep(kind, output, sub_question=sub_question), None


class TestExtractAnswer:
    def test_label_with_option_text(self, question):
        medqa = Question("m", "Which treatment?", {
            "A": "Ampicillin", "B": "Ceftriaxone", "C": "Ciprofloxacin",
            "D": "Doxycycline", "E": "Nitrofurantoin"})
        text = "Therefore the best choice follows. The answer is E: Nitrofurantoin."
        assert extract_answer(text, medqa) == "E"

    def test_absent_pattern_gives_none(self, question):
        assert extract_answer("no conclusion", question) is None

    def test_last_occurrence_wins(self, question):
        text = "At first the answer is A here. But finally: The answer is B."
        assert extract_answer(text, question) == "B"

    def test_letter_must_be_an_option_key(self, question):
        # question has options A-C only
        assert extract_answer("The answer is E: something", question) is None

    def test_letter_starting_a_word_does_not_count(self, question):
        assert extract_answer("The answer is Clearly unknown", question) is None

    def test_parenthesised_label(self, question):
        assert extract_answer("The answer is (B) beta therapy", question) == "B"


class TestValidActions:
    def test_root_with_all_enabled(self, question):
        ctx = Trajectory(question)
        assert valid_actions(ctx, CFG) == frozenset({A.A1, A.A2, A.A3, A.A5, A.A6})

    def test_after_nonterminal_a3(self, question):
        ctx = ctx_after(question, nonterminal(A.A3, "sub answer", "What applies?"))
        result = valid_actions(ctx, CFG)
        assert result == frozenset({A.A3, A.A4, A.A7})
        assert A.A4 in result and A.A7 in result

    def test_disabled_actions_never_appear(self, question):
        cfg = SearchConfig(enabled_actions=frozenset(
            {A.A1, A.A2, A.A3, A.A4, A.A5}))
        ctx_root = Trajectory(question)
        ctx_a3 = ctx_after(question, nonterminal(A.A3, "s", "W?"))
        assert A.A6 not in valid_actions(ctx_root, cfg)
        assert A.A7 not in valid_actions(ctx_a3, cfg)

    def test_after_a1_and_a5(self, question):
        for kind in (A.A1, A.A5):
            ctx = ctx_after(question, nonterminal(kind))
            assert valid_actions(ctx, CFG) == frozenset({A.A1, A.A2, A.A3, A.A6})

    def test_after_a4_and_a7_only_a3(self, question):
        ctx = ctx_after(question,
                        nonterminal(A.A3, "s", "W?"),
                        nonterminal(A.A4, "re-answer", "W?"))
        assert valid_actions(ctx, CFG) == frozenset({A.A3})

    def test_terminal_context_has_no_actions(self, question):
        step = ActionStep(A.A2, "The answer is B: beta therapy.")
        ctx = ctx_after(question, (step, "B"))
        assert valid_actions(ctx, CFG) == frozenset()

    def test_long_subquestion_chain_forces_a2(self, question):
        outcomes = [nonterminal(A.A3, f"s{i}", f"W{i}?") for i in range(6)]
        ctx = ctx_after(question, *outcomes)
        assert valid_actions(ctx, CFG) == frozenset({A.A2})

    def test_closure_under_extension(self, question, scope):
        # whatever outcome is appended, the next legal set stays within the
        # enabled set
        ctx = Trajectory(question)
        for _ in range(4):
            kinds = valid_actions(ctx, CFG)
            assert kinds <= CFG.enabled_actions
            if not kinds:
                break
            kind = sorted(kinds, key=lambda k: k.value)[0]
            ctx = execute_action(kind, ctx, scope)[0]
            assert valid_actions(ctx, CFG) <= CFG.enabled_actions


class TestParsers:
    def test_parse_first_step_cuts_at_second_step(self):
        text = "Step 2: First thought here.\nStep 3: Should not appear."
        assert parse_first_step(text) == "Step 2: First thought here."

    def test_parse_first_step_plain_text(self):
        assert parse_first_step("  a single thought  ") == "a single thought"

    def test_parse_sub_qa_labelled(self):
        parsed = parse_sub_qa("Question 2.1: What is X?\nAnswer 2.1: X is a thing.")
        assert parsed == ("What is X?", "X is a thing.")

    def test_parse_sub_qa_keeps_first_pair_only(self):
        text = ("Question 2.1: What is X?\nAnswer 2.1: X is a thing.\n"
                "Question 2.2: What is Y?\nAnswer 2.2: Y is other.")
        assert parse_sub_qa(text) == ("What is X?", "X is a thing.")

    def test_parse_sub_qa_unlabelled_marker(self):
        text = "Now we can answer the question: which?\nThe answer is B: beta."
        assert parse_sub_qa(text) == (
            "Now we can answer the question: which?", "The answer is B: beta.")

    def test_parse_sub_qa_rejects_prose(self):
        assert parse_sub_qa("no structure at all") is None

    def test_parse_queries_prefers_labelled_lines(self):
        text = ("Query 1.1: alpha basics\nDocument 1.1: noise\n"
                "Query 1.2: beta evidence\nQuery 1.3: gamma risks\nQuery 1.4: extra")
        assert parse_queries(text, 3) == [
            "alpha basics", "beta evidence", "gamma risks"]

    def test_parse_queries_falls_back_to_bare_lines(self):
        assert parse_queries("one query\n\nsecond query\n", 3) == [
            "one query", "second query"]

    def test_parse_queries_ignores_document_lines(self):
        assert parse_queries("Document 1.1: not a query", 3) == []


class TestDerivedState:
    """``pending_sub_question`` and ``question_text()`` are derived from the
    steps; they must match a step-by-step replay in which an A5 step sets the
    rephrasing and each step sets the pending sub-question to its own when it
    is an unanswered A3 step, and clears it otherwise. ``question_text()``
    and ``content_hash()`` are memoized per instance, so ``extend`` and
    ``replace`` must give values of the new steps, never the parent's."""

    @given(st.data())
    def test_matches_a_replay_of_step_bookkeeping(self, data):
        question = make_eval_question("q01", "B")
        traj, rephrased, pending = Trajectory(question), None, None
        texts = st.text(alphabet="ab ?", max_size=6)
        for _ in range(data.draw(st.integers(0, 10))):
            kinds = valid_actions(traj, CFG)
            if not kinds:
                break
            kind = data.draw(st.sampled_from(sorted(kinds, key=lambda k: k.value)))
            # A4 and A7 act on the pending sub-question; A3 asks a new one
            sub_question = data.draw(texts) if kind == A.A3 else (
                pending if kind in SUBQUESTION_ACTIONS else None)
            answer = data.draw(st.sampled_from(question.labels)
                               if kind in (A.A2, A.A6) else st.none() | st.just("A"))
            step = ActionStep(kind, data.draw(texts), sub_question=sub_question)
            # read the parent's memos first: no child may inherit them
            parent, parent_memos = traj, (traj.content_hash(), traj.question_text())
            traj = traj.extend(step, answer)
            if kind == A.A5:
                rephrased = step.output
            pending = sub_question if kind == A.A3 and answer is None else None
            assert traj.pending_sub_question == pending
            assert traj.question_text() == question.render(rephrased)
            assert traj.content_hash() == Trajectory(question, traj.steps).content_hash()
            assert traj.content_hash() != parent_memos[0]
            back = replace(traj, steps=parent.steps, final_answer=parent.final_answer)
            assert back == parent
            assert (back.content_hash(), back.question_text()) == parent_memos


class TestExecuteActions:
    def test_a6_parses_queries_and_retrieves(self, question, scope):
        children = execute_action(A.A6, Trajectory(question), scope)
        step = children[0].steps[-1]
        assert len(step.queries) == 3
        assert step.retrieved
        assert children[0].final_answer == "B"

    def test_a3_marker_terminal(self, question, scope):
        ctx = execute_action(A.A3, Trajectory(question), scope)[0]
        assert ctx.final_answer is None
        assert ctx.pending_sub_question == ctx.steps[-1].sub_question
        second = execute_action(A.A3, ctx, scope)[0]
        assert second.steps[-1].sub_question.startswith("Now we can answer the question")
        assert second.final_answer == "B"

    def test_a2_extracts_answer(self, question, scope):
        child = execute_action(A.A2, Trajectory(question), scope)[0]
        assert child.final_answer == "B"
        assert "the answer is B" in child.steps[-1].output

    def test_a1_produces_nonterminal_step(self, question, scope):
        child = execute_action(A.A1, Trajectory(question), scope)[0]
        assert child.final_answer is None
        assert child.steps[-1].output.startswith("Step 1:")

    def test_a5_sets_rephrased_stem_for_descendants(self, question, scope):
        ctx = execute_action(A.A5, Trajectory(question), scope)[0]
        output = ctx.steps[-1].output
        assert ctx.question_text() == output != question.render()
        # descendants keep it
        later = ctx.extend(*nonterminal(A.A1))
        assert later.question_text() == output

    def test_a4_reanswers_pending_subquestion(self, question, scope):
        ctx = execute_action(A.A3, Trajectory(question), scope)[0]
        step = execute_action(A.A4, ctx, scope)[0].steps[-1]
        assert step.sub_question == ctx.steps[-1].sub_question
        assert step.kind == A.A4

    def test_a7_retrieves_for_subquestion(self, question, scope):
        ctx = execute_action(A.A3, Trajectory(question), scope)[0]
        sub_question = ctx.steps[-1].sub_question
        step = execute_action(A.A7, ctx, scope)[0].steps[-1]
        assert step.retrieved
        assert step.queries == (sub_question,)
        assert step.sub_question == sub_question

    def test_unparseable_a2_discarded_raises_no_viable_child(self, question, index):
        backend = ScriptedBackend([
            ScriptEntry("action_gen", ("rambling without a verdict",)),
        ])
        with pytest.raises(NoViableChildError):
            execute_action(A.A2, Trajectory(question), Scope(question, CFG, backend, index))

    def test_terminal_soundness_on_executed_steps(self, question, scope):
        for kind in (A.A1, A.A2, A.A5, A.A6):
            child = execute_action(kind, Trajectory(question), scope)[0]
            assert (child.final_answer is not None) == (
                extract_answer(child.steps[-1].output, question) is not None)


class TestScope:
    def test_config_is_seeded_from_the_question_id(self, question, backend, index):
        cfg = SearchConfig(rollouts=3, rng_seed=7)
        scope = Scope(question, cfg, backend, index)
        assert scope.cfg == replace(cfg, rng_seed=derive_seed(7, question.id))
        twin = Scope(replace(question, id="other"), cfg, backend, index)
        assert twin.cfg.rng_seed != scope.cfg.rng_seed
        assert (scope.backend, scope.index, scope.hits) == (backend, index, {})

    def test_prompts_default_to_the_packaged_templates(self, question, backend, tmp_path):
        assert Scope(question, CFG, backend).prompts is default_prompts()
        for kind in ActionKind:
            (tmp_path / f"{kind.value.lower()}.txt").write_text("{question}", encoding="utf-8")
        custom = PromptLibrary.from_dir(tmp_path)
        assert Scope(question, CFG, backend, prompts=custom).prompts is custom


class TestActionRequest:
    def test_a6_request_renders_the_a7_template_with_the_spec_stop(self, question):
        req = action_request(A.A6, Trajectory(question), default_prompts(), "action_gen", 2,
                             "DOCS")
        assert req.prompt == default_prompts().render(
            A.A7, sub_question=question.render(), documents="DOCS")
        assert req.stop_sequences == ACTION_SPECS[A.A6].stop == ("### Instruction",)
        assert (req.purpose_tag, req.n_samples) == ("action_gen", 2)

    def test_a2_request_at_a_context_renders_its_steps(self, question):
        ctx = ctx_after(question, nonterminal(A.A1, "First step."))
        req = action_request(A.A2, ctx, default_prompts(), "consistency", 3)
        assert req.prompt == default_prompts().render(
            A.A2, question=question.render(), steps="First step.")
        assert req.purpose_tag == "consistency" and req.temperature > 0


class TestRenderDocuments:
    def test_titled_hit_shows_its_title_and_untitled_hit_its_snippet(self):
        hits = (DocumentRef("a", 2.0, "alpha text", title="Alpha"),
                DocumentRef("b", 1.0, "beta text"))
        assert render_documents(hits) == "Alpha: alpha text\nbeta text"
        assert render_documents(()) == ""

    def test_a6_prompt_shows_each_hit_under_its_title(self, question, backend, index):
        backend = RecordingBackend(backend)
        scope = Scope(question, CFG, backend, index)
        step = execute_action(A.A6, Trajectory(question), scope)[0].steps[-1]
        assert step.retrieved and all(hit.title for hit in step.retrieved)
        assert render_documents(step.retrieved) in backend.call_log()[-1].prompt


class TestRetrievalIsolation:
    def test_no_retrieval_payload_when_a6_a7_disabled(self, question, index):
        cfg = SearchConfig(enabled_actions=frozenset(
            {A.A1, A.A2, A.A3, A.A4, A.A5}))
        scope = Scope(question, cfg, ScriptedBackend(tree_entries_for(question, "B")), index)
        ctx = Trajectory(question)
        seen_kinds = set()
        for _ in range(5):
            kinds = valid_actions(ctx, cfg)
            if not kinds:
                break
            kind = sorted(kinds, key=lambda k: k.value)[0]
            ctx = execute_action(kind, ctx, scope)[0]
            seen_kinds.add(kind)
        assert seen_kinds
        for step in ctx.steps:
            assert not step.retrieved
            assert not step.queries


def scaffold(prompts, kind):
    """Template text up to its first placeholder: the few-shot part."""
    return prompts.templates[kind].partition("{")[0]


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc)


FIELD_NAMES = ("question", "steps", "sub_question", "documents")
# literal text as a template writes it: a brace is doubled
_literals = st.text(alphabet="ab {}\n", max_size=6).map(
    lambda text: text.replace("{", "{{").replace("}", "}}"))
_fields = st.builds(lambda name, conv, spec: "{" + name + conv + spec + "}",
                    st.sampled_from(FIELD_NAMES),
                    st.sampled_from(["", "!r", "!s"]),
                    st.sampled_from(["", ":", ":>8", ":*^5", ":.2", ":<{steps}"]))
_templates = st.builds(lambda pairs, tail: "".join(a + b for a, b in pairs) + tail,
                       st.lists(st.tuples(_literals, _fields), max_size=4), _literals)
_field_values = st.fixed_dictionaries(
    {name: st.text(alphabet="ab{}\n", max_size=5) for name in FIELD_NAMES})


class TestPromptFidelity:
    def test_rendered_prompts_contain_scaffolds_verbatim(self, question, backend,
                                                         index):
        backend = RecordingBackend(backend)
        scope = Scope(question, CFG, backend, index)
        prompts = default_prompts()
        execute_action(A.A1, Trajectory(question), scope)
        assert scaffold(prompts, A.A1) in backend.call_log()[-1].prompt
        execute_action(A.A3, Trajectory(question), scope)
        assert scaffold(prompts, A.A3) in backend.call_log()[-1].prompt
        # A6 sends two prompts: query generation (a6 scaffold) then answering
        # via the retrieval-answer template (a7 scaffold)
        execute_action(A.A6, Trajectory(question), scope)
        log = backend.call_log()
        query_calls = [r for r in log if r.purpose == "query_gen"]
        assert any(scaffold(prompts, A.A6) in r.prompt for r in query_calls)
        answer_calls = [r for r in log if "### Relevant Documents" in r.prompt]
        assert any(scaffold(prompts, A.A7) in r.prompt for r in answer_calls)

    def test_scaffold_is_nonempty_for_every_action(self):
        prompts = default_prompts()
        for kind in ActionKind:
            assert len(scaffold(prompts, kind)) > 100

    def test_from_dir_round_trip(self, tmp_path):
        for kind in ActionKind:
            (tmp_path / f"{kind.value.lower()}.txt").write_text(
                f"scaffold {kind.value}\n{{question}}", encoding="utf-8")
        lib = PromptLibrary.from_dir(tmp_path)
        assert lib.render(A.A1, question="Q") == "scaffold A1\nQ"

    def test_from_dir_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            PromptLibrary.from_dir(tmp_path)

    @pytest.mark.parametrize("bad", ['{"json": 1}', "{0}", "{question", "{question.nope}",
                                     "x}y", "{question!}", "{question:}}"])
    def test_unrenderable_template_rejected(self, tmp_path, bad):
        for kind in ActionKind:
            (tmp_path / f"{kind.value.lower()}.txt").write_text(
                "scaffold {question}", encoding="utf-8")
        (tmp_path / "a4.txt").write_text(f"scaffold {bad}", encoding="utf-8")
        with pytest.raises(ValidationError, match="A4"):
            PromptLibrary.from_dir(tmp_path)

    @given(template=_templates, fields=_field_values)
    @example(template="{{a}}{question!r:>8}\n}}{steps:*^5}{{",
             fields=dict.fromkeys(FIELD_NAMES, "{x}"))
    def test_render_equals_str_format(self, template, fields):
        """Rendering the pieces split at load gives what ``str.format`` gives
        on the whole template, for every template and field value: the same
        text, or the same exception type when a nested spec is invalid."""
        lib = PromptLibrary(dict.fromkeys(ActionKind, template))
        assert outcome(lib.render, A.A4, **fields) == outcome(template.format, **fields)
