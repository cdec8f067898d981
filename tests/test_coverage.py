"""Aspect coverage vectors, redundancy scoring, and prompt augmentation."""

import itertools
import json

import pytest

from ptqkit import coverage as cov


class AdversarialCaptionGenerator(cov.CaptionGenerator):
    """Never covers anything; used to exercise the iteration cap."""

    def __init__(self):
        self.calls = 0

    def generate(self, aspect, context_texts):
        self.calls += 1
        return "an unrelated clip of nothing in particular"


@pytest.fixture(scope="module")
def aspects():
    return cov.AspectSet.default()


def _mini_aspects():
    return cov.AspectSet([
        cov.Aspect("speech", "Speech", ("speech", "talking")),
        cov.Aspect("music", "Music", ("music", "melody")),
        cov.Aspect("sound_effects", "Sound effects", ("alarm", "beep", "siren")),
    ])


class TestCoverageVector:
    def test_alarm_prompt_sets_sound_effects_bit(self, aspects):
        bits = cov.compute_coverage_vector("a single continuous alarm beep", aspects)
        assert bits[aspects.index("sound_effects")] == 1

    def test_unrelated_text_is_all_zero(self):
        bits = cov.compute_coverage_vector("quarterly revenue spreadsheet", _mini_aspects())
        assert bits == (0, 0, 0)

    def test_case_insensitive(self):
        a = _mini_aspects()
        assert cov.compute_coverage_vector("AN ALARM RINGS", a) == \
            cov.compute_coverage_vector("an alarm rings", a)

    def test_punctuation_ignored(self):
        bits = cov.compute_coverage_vector("alarm, then silence.", _mini_aspects())
        assert bits[2] == 1

    def test_multiword_phrase_must_appear_in_order(self):
        a = cov.AspectSet([cov.Aspect("fx", "FX", ("door slam",))])
        assert cov.compute_coverage_vector("a door slam echoes", a) == (1,)
        assert cov.compute_coverage_vector("slam the door", a) == (0,)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            cov.compute_coverage_vector("   ", _mini_aspects())

    def test_default_aspect_set_has_16(self, aspects):
        assert len(aspects) == 16


class TestGlobalCoverage:
    def test_elementwise_max(self):
        ps = cov.PromptSet(prompts=[
            cov.Prompt("a", "x", (1, 0)),
            cov.Prompt("b", "y", (0, 1)),
        ])
        assert cov.global_coverage(ps) == (1, 1)

    def test_empty_set(self):
        assert cov.global_coverage(cov.PromptSet(prompts=[])) == ()

    def test_single_prompt_is_identity(self):
        ps = cov.PromptSet(prompts=[cov.Prompt("a", "x", (1, 0, 1))])
        assert cov.global_coverage(ps) == (1, 0, 1)


class TestRedundancyScore:
    def test_all_distinct(self):
        ps = cov.PromptSet(prompts=[
            cov.Prompt("a", "x", (1, 0)),
            cov.Prompt("b", "y", (0, 1)),
        ])
        assert cov.redundancy_score(ps) == 0

    def test_two_identical(self):
        ps = cov.PromptSet(prompts=[
            cov.Prompt("a", "x", (1, 0)),
            cov.Prompt("b", "y", (1, 0)),
            cov.Prompt("c", "z", (0, 1)),
        ])
        assert cov.redundancy_score(ps) == 2

    def test_three_identical(self):
        ps = cov.PromptSet(prompts=[cov.Prompt(f"p{i}", str(i), (1, 1)) for i in range(3)])
        assert cov.redundancy_score(ps) == 6

    def test_matches_brute_force_pair_enumeration(self):
        vectors = [(1, 0), (1, 0), (0, 1), (1, 1), (0, 1), (1, 0)]
        ps = cov.PromptSet(prompts=[cov.Prompt(f"p{i}", str(i), v) for i, v in enumerate(vectors)])
        brute = sum(
            1
            for i, j in itertools.permutations(range(len(vectors)), 2)
            if vectors[i] == vectors[j]
        )
        assert cov.redundancy_score(ps) == brute


class _PhraseMock(cov.CaptionGenerator):
    """Emits '<first lexicon phrase> sound' for the requested aspect."""

    def __init__(self):
        self.calls = 0

    def generate(self, aspect, context_texts):
        self.calls += 1
        return f"{aspect.lexicon[0]} sound"


class TestAugment:
    def test_fully_covered_seed_returns_unchanged(self, aspects):
        texts = [" ".join(a.lexicon[0] for a in aspects)]
        seed = cov.PromptSet.from_texts(texts, aspects)
        gen = cov.MockCaptionGenerator(aspects)
        final, report = cov.augment(seed, aspects, gen)
        assert [p.text for p in final.prompts] == texts
        assert report.coverage_rounds == 0
        assert report.generator_calls == 0

    def test_phrase_mock_reaches_full_coverage_in_at_most_b_calls(self, aspects):
        seed = cov.PromptSet(prompts=[])
        gen = _PhraseMock()
        final, report = cov.augment(seed, aspects, gen)
        assert all(cov.global_coverage(final))
        assert gen.calls <= len(aspects)
        assert report.uncovered == []

    def test_builtin_mock_reaches_full_coverage(self, aspects):
        seed = cov.PromptSet(prompts=[])
        gen = cov.MockCaptionGenerator(aspects, seed=3)
        final, report = cov.augment(seed, aspects, gen)
        assert all(cov.global_coverage(final))
        assert report.final_redundancy == 0

    def test_adversarial_mock_halts_at_i_max_with_report(self, aspects):
        seed = cov.PromptSet(prompts=[])
        gen = AdversarialCaptionGenerator()
        final, report = cov.augment(seed, aspects, gen, i_max=10)
        assert report.coverage_rounds == 10
        assert sorted(report.uncovered) == sorted(a.aspect_id for a in aspects)
        assert gen.calls == 10 * len(aspects)

    def test_generator_call_bound(self, aspects):
        # never more than i_max coverage rounds x |B| calls plus i_max redundancy calls
        seed = cov.PromptSet(prompts=[])
        gen = cov.MockCaptionGenerator(aspects, seed=11)
        _, report = cov.augment(seed, aspects, gen, i_max=10)
        assert report.generator_calls <= 10 * len(aspects) + 10

    def test_coverage_never_decreases_across_rounds(self, aspects):
        seed = cov.PromptSet.from_texts(["soft piano music playing"], aspects)
        gen = cov.MockCaptionGenerator(aspects, seed=1)
        final, _ = cov.augment(seed, aspects, gen)
        before = cov.global_coverage(seed)
        after = cov.global_coverage(final)
        assert all(b <= a for b, a in zip(before, after))

    def test_seed_prompts_never_removed(self, aspects):
        texts = ["loud alarm beep", "another loud alarm beep"]  # duplicate vectors
        seed = cov.PromptSet.from_texts(texts, aspects)
        gen = cov.MockCaptionGenerator(aspects, seed=2)
        final, _ = cov.augment(seed, aspects, gen)
        ids = {p.prompt_id for p in final.prompts}
        assert {"seed-0000", "seed-0001"} <= ids

    def test_redundancy_pass_replaces_generated_duplicates(self):
        a = _mini_aspects()
        seed = cov.PromptSet(prompts=[])
        gen = cov.MockCaptionGenerator(a, seed=0)
        final, report = cov.augment(seed, a, gen, tau_redundancy=0)
        assert cov.redundancy_score(final) == report.final_redundancy
        assert report.final_redundancy <= max(0, cov.redundancy_score(final))

    def test_deterministic_given_seed(self, aspects):
        def run():
            gen = cov.MockCaptionGenerator(aspects, seed=7)
            final, _ = cov.augment(cov.PromptSet(prompts=[]), aspects, gen)
            return [(p.prompt_id, p.text, p.bits) for p in final.prompts]

        assert run() == run()

    def test_mock_on_a_one_aspect_set_repeats_without_widening(self):
        one = cov.AspectSet([cov.Aspect("speech", "Speech", ("speech", "talking"))])
        gen = cov.MockCaptionGenerator(one, seed=0)
        first = gen.generate(one.aspects[0], [])
        again = gen.generate(one.aspects[0], [first])  # already covered, no other aspect
        assert again.startswith("a recording of ") and "together with" not in again
        assert cov.compute_coverage_vector(again, one) == (1,)

    def test_i_max_must_be_positive(self, aspects):
        with pytest.raises(ValueError):
            cov.augment(cov.PromptSet(prompts=[]), aspects,
                        cov.MockCaptionGenerator(aspects), i_max=0)


class TestPromptSetIO:
    def test_tsv_round_trip(self, tmp_path, aspects):
        gen = cov.MockCaptionGenerator(aspects, seed=5)
        final, _ = cov.augment(cov.PromptSet(prompts=[]), aspects, gen)
        path = tmp_path / "prompts.tsv"
        cov.save_prompt_set(final, path)
        loaded = cov.load_prompt_set(path)
        assert loaded.role == final.role
        assert [(p.prompt_id, p.text, p.bits) for p in loaded.prompts] == \
            [(p.prompt_id, p.text, p.bits) for p in final.prompts]

    def test_duplicate_prompt_ids_rejected(self):
        with pytest.raises(ValueError):
            cov.PromptSet(prompts=[cov.Prompt("a", "x", (1,)), cov.Prompt("a", "y", (0,))])

    def test_aspect_file_round_trip(self, tmp_path, aspects):
        path = tmp_path / "aspects.json"
        path.write_text(json.dumps([{"id": a.aspect_id, "name": a.name, "phrases": list(a.lexicon)}
                                    for a in aspects]))
        loaded = cov.AspectSet.from_file(path)
        assert [(a.aspect_id, a.name, a.lexicon) for a in loaded] == \
            [(a.aspect_id, a.name, a.lexicon) for a in aspects]

