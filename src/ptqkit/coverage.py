"""Coverage-driven prompt augmentation.

Each prompt gets a binary coverage vector over a user-defined aspect
set; uncovered aspects are filled by asking a caption generator for new
prompts, one candidate per uncovered aspect per round, until full
coverage or the iteration cap.  A redundancy pass then replaces prompts
whose coverage vectors duplicate another's.

"Sufficiently addresses an aspect" is realized as a deterministic
lexicon phrase match on normalized text; swap in a different matcher by
editing the lexicon file or subclassing AspectSet.
"""

import hashlib
import json
import os
import string
import urllib.request
from dataclasses import dataclass, field
from importlib import resources

from .artifacts import read_json, read_tsv, write_tsv
from .errors import GeneratorError

_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def normalize_tokens(text: str):
    """Lowercase, strip punctuation, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


@dataclass(frozen=True)
class Aspect:
    aspect_id: str
    name: str
    lexicon: tuple  # trigger phrases

    def __post_init__(self):
        if not self.lexicon:
            raise ValueError(f"aspect {self.aspect_id!r} has an empty lexicon")


class AspectSet:
    """Ordered aspects; vector index = position in this order."""

    def __init__(self, aspects):
        aspects = list(aspects)
        ids = [a.aspect_id for a in aspects]
        if len(set(ids)) != len(ids):
            raise ValueError("aspect ids must be unique")
        self.aspects = aspects

    def __len__(self):
        return len(self.aspects)

    def __iter__(self):
        return iter(self.aspects)

    def index(self, aspect_id: str) -> int:
        for i, a in enumerate(self.aspects):
            if a.aspect_id == aspect_id:
                return i
        raise KeyError(aspect_id)

    @classmethod
    def default(cls) -> "AspectSet":
        """The built-in 16 audio aspects (7 modalities + 9 characteristics)."""
        return cls.from_file(resources.files("ptqkit").joinpath("data/aspects.json"))

    @classmethod
    def from_file(cls, path) -> "AspectSet":
        return cls([Aspect(r["id"], r["name"], tuple(r["phrases"])) for r in read_json(path)])


def _phrase_in_tokens(phrase: str, tokens) -> bool:
    ptoks = normalize_tokens(phrase)
    if not ptoks:
        return False
    n, m = len(tokens), len(ptoks)
    return any(tokens[i : i + m] == ptoks for i in range(n - m + 1))


def compute_coverage_vector(text: str, aspects: AspectSet) -> tuple:
    """bit b = 1 iff any lexicon phrase of aspect b occurs in the text."""
    if not text or not text.strip():
        raise ValueError("prompt text must be non-empty")
    tokens = normalize_tokens(text)
    return tuple(1 if any(_phrase_in_tokens(ph, tokens) for ph in a.lexicon) else 0 for a in aspects)


@dataclass
class Prompt:
    prompt_id: str
    text: str
    bits: tuple


@dataclass
class PromptSet:
    prompts: list
    role: str = "random_seed_set"  # "random_seed_set" | "final_set"

    def __post_init__(self):
        ids = [p.prompt_id for p in self.prompts]
        if len(set(ids)) != len(ids):
            raise ValueError("prompt ids must be unique")

    @classmethod
    def from_texts(cls, texts, aspects: AspectSet, role: str = "random_seed_set") -> "PromptSet":
        prompts = [
            Prompt(prompt_id=f"seed-{i:04d}", text=t, bits=compute_coverage_vector(t, aspects))
            for i, t in enumerate(texts)
        ]
        return cls(prompts=prompts, role=role)


def global_coverage(prompt_set: PromptSet) -> tuple:
    """Elementwise max of member vectors; empty set -> all zeros (length unknown -> ())."""
    if not prompt_set.prompts:
        return ()
    width = len(prompt_set.prompts[0].bits)
    out = [0] * width
    for p in prompt_set.prompts:
        for i, b in enumerate(p.bits):
            out[i] = max(out[i], b)
    return tuple(out)


def redundancy_score(prompt_set: PromptSet) -> int:
    """Count of *ordered* pairs i != j with identical coverage vectors.

    Two identical prompts contribute 2, three identical contribute 6 --
    this matches the literal sum over ordered index pairs.
    """
    counts = {}
    for p in prompt_set.prompts:
        counts[p.bits] = counts.get(p.bits, 0) + 1
    return sum(c * (c - 1) for c in counts.values())


class CaptionGenerator:
    """Interface: produce one candidate caption for a target aspect."""

    def generate(self, aspect: Aspect, context_texts) -> str:
        raise NotImplementedError


class MockCaptionGenerator(CaptionGenerator):
    """Deterministic offline generator.

    For an aspect not yet covered by the context, it emits a minimal
    caption built from the aspect's own lexicon.  When asked about an
    already-covered aspect (a diversity re-prompt), it widens the caption
    with a second aspect chosen from the context hash, so the coverage
    vector changes between rounds.
    """

    def __init__(self, aspects: AspectSet, seed: int = 0):
        self.aspects = aspects
        self.seed = seed
        self.calls = 0

    def _digest(self, aspect_id: str, context_texts) -> int:
        ctx = "|".join(sorted(context_texts))
        blob = f"{self.seed}:{aspect_id}:{ctx}".encode()
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")

    def generate(self, aspect: Aspect, context_texts) -> str:
        self.calls += 1
        h = self._digest(aspect.aspect_id, context_texts)
        phrase = aspect.lexicon[h % len(aspect.lexicon)]
        ctx_coverage = [0] * len(self.aspects)
        for text in context_texts:
            for i, b in enumerate(compute_coverage_vector(text, self.aspects)):
                ctx_coverage[i] = max(ctx_coverage[i], b)
        target_idx = self.aspects.index(aspect.aspect_id)
        if ctx_coverage[target_idx]:
            other = self.aspects.aspects[(target_idx + 1 + h % (len(self.aspects) - 1)) % len(self.aspects)]
            other_phrase = other.lexicon[(h >> 16) % len(other.lexicon)]
            return f"a recording of {phrase} together with {other_phrase}"
        return f"a recording of {phrase}"


class HttpCaptionGenerator(CaptionGenerator):
    """Optional HTTP backend; never used unless explicitly constructed.

    POSTs {"aspect": ..., "context": [...]} to the endpoint with a bearer
    token from the named environment variable, expects {"caption": "..."}.
    """

    def __init__(self, url: str, api_key_env: str = "PTQKIT_GENERATOR_API_KEY",
                 timeout: float = 10.0, max_context: int = 16):
        self.url = url
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_context = max_context

    def generate(self, aspect: Aspect, context_texts) -> str:
        payload = json.dumps(
            {"aspect": aspect.name, "context": list(context_texts)[: self.max_context]}
        ).encode()
        req = urllib.request.Request(self.url, data=payload, method="POST",
                                     headers={"Content-Type": "application/json"})
        key = os.environ.get(self.api_key_env)
        if key:
            req.add_header("Authorization", f"Bearer {key}")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = json.loads(resp.read().decode())
        except Exception as exc:  # transport / parse failure
            raise GeneratorError(aspect.aspect_id, str(exc)) from exc
        caption = body.get("caption")
        if not isinstance(caption, str) or not caption.strip():
            raise GeneratorError(aspect.aspect_id, "response carried no caption")
        return caption


@dataclass
class AugmentReport:
    coverage_rounds: int = 0
    redundancy_rounds: int = 0
    generator_calls: int = 0
    admitted: list = field(default_factory=list)
    replaced: list = field(default_factory=list)
    uncovered: list = field(default_factory=list)
    final_redundancy: int = 0


def augment(seed_set: PromptSet, aspects: AspectSet, gen: CaptionGenerator,
            i_max: int = 10, tau_redundancy: int = 0):
    """Grow the seed set until every aspect is covered, then prune redundancy.

    Coverage rounds request one candidate per uncovered aspect and admit
    only candidates that actually cover their target.  Redundancy rounds
    (at most i_max, one generator call each) replace one generated
    duplicate-vector prompt per round; seed prompts are never removed.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    prompts = list(seed_set.prompts)
    seed_ids = {p.prompt_id for p in seed_set.prompts}
    report = AugmentReport()
    next_id = 0

    def _coverage():
        out = [0] * len(aspects)
        for p in prompts:
            for i, b in enumerate(p.bits):
                out[i] = max(out[i], b)
        return out

    cov = _coverage()
    rounds = 0
    while not all(cov) and rounds < i_max:
        rounds += 1
        for idx, a in enumerate(aspects):
            if cov[idx]:
                continue
            context = [p.text for p in prompts]
            text = gen.generate(a, context)
            report.generator_calls += 1
            bits = compute_coverage_vector(text, aspects)
            if bits[idx]:  # admit only if the target aspect is actually covered
                pid = f"gen-{next_id:04d}"
                next_id += 1
                prompts.append(Prompt(prompt_id=pid, text=text, bits=bits))
                report.admitted.append(pid)
                for i, b in enumerate(bits):
                    cov[i] = max(cov[i], b)
    report.coverage_rounds = rounds

    def _score():
        return redundancy_score(PromptSet(prompts=list(prompts), role="final_set"))

    rounds = 0
    while _score() > tau_redundancy and rounds < i_max:
        rounds += 1
        # first duplicated vector, replaceable (non-seed) victim preferred
        seen = {}
        victim = None
        for p in prompts:
            if p.bits in seen:
                first = seen[p.bits]
                for cand in (p, first):
                    if cand.prompt_id not in seed_ids:
                        victim = cand
                        break
                if victim is not None:
                    break
            else:
                seen[p.bits] = p
        if victim is None:
            break  # only seed prompts duplicate each other; nothing we may remove
        target = aspects.aspects[(rounds - 1 + sum(victim.bits)) % len(aspects)]
        context = [p.text for p in prompts]
        text = gen.generate(target, context)
        report.generator_calls += 1
        bits = compute_coverage_vector(text, aspects)
        existing = {p.bits for p in prompts if p.prompt_id != victim.prompt_id}
        if bits in existing:
            continue  # candidate would still duplicate; try again next round
        pid = f"gen-{next_id:04d}"
        next_id += 1
        prompts = [p for p in prompts if p.prompt_id != victim.prompt_id]
        prompts.append(Prompt(prompt_id=pid, text=text, bits=bits))
        report.replaced.append(victim.prompt_id)
    report.redundancy_rounds = rounds

    cov = _coverage()
    report.uncovered = [a.aspect_id for idx, a in enumerate(aspects) if not cov[idx]]
    final = PromptSet(prompts=prompts, role="final_set")
    report.final_redundancy = redundancy_score(final)
    return final, report


def save_prompt_set(ps: PromptSet, path) -> None:
    """One tab-separated record per prompt: id, coverage bits, text."""
    write_tsv(path, ("prompt_id", "bits", "text"),
              [(p.prompt_id, "".join(str(b) for b in p.bits), p.text) for p in ps.prompts],
              comment={"role": ps.role})


def load_prompt_set(path) -> PromptSet:
    comment, rows = read_tsv(path, {"prompt_id": str, "text": str,
                                    "bits": lambda s: tuple(int(b) for b in s)})
    return PromptSet(prompts=[Prompt(**r) for r in rows],
                     role=comment.get("role") or "random_seed_set")
