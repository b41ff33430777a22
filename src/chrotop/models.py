"""Round-based execution spaces: schedule alphabets, prefix predicates,
and finitely many excluded eventually-periodic executions.

A round schedule is an ordered partition of the process set: the blocks
take their snapshots in sequence, each block seeing every earlier block
and itself.  For two processes the three schedules are written with the
arrows of the lossy-link reading: "->" means the left process goes
first (it hears nobody this round), "<-" means the right process goes
first, "<->" means both see each other.

Everywhere in chrotop a schedule is one value, the `Schedule` of
`subdivision`: the tuple of its blocks, each a sorted tuple of colors,
and a word is a tuple of schedules.  Input is read into that form, and
checked, only by `parse_schedule`; `schedule_text` writes it back.
"""

from __future__ import annotations

from itertools import product
from typing import Callable

from .errors import Unsupported
from .simplicial import Frozen
from .subdivision import Schedule, ordered_partitions

MAX_PROCESSES = 5

# Fixed orientation for n = 2: "->" is the ordered partition ({0}, {1}),
# the round in which the left process sees only itself.
ARROW_NAMES = {
    ((0,), (1,)): "->",
    ((1,), (0,)): "<-",
    ((0, 1),): "<->",
}
ARROW_SCHEDULES = {name: blocks for blocks, name in ARROW_NAMES.items()}


def parse_schedule(raw) -> Schedule:
    """A round schedule from an arrow, a "0,1|2" string or a list of int
    lists, with each block sorted; raises `ValueError` unless the blocks
    are nonempty and name each color once."""
    if isinstance(raw, str):
        if raw in ARROW_SCHEDULES:
            return ARROW_SCHEDULES[raw]
        raw = [part.split(",") for part in raw.split("|")]
    schedule = tuple(tuple(sorted(int(c) for c in b)) for b in raw)
    colors = [c for b in schedule for c in b]
    if not all(schedule) or len(set(colors)) < len(colors):
        raise ValueError(f"blocks must be nonempty and name each color once: {schedule}")
    return schedule


def schedule_text(schedule: Schedule) -> str:
    """The arrow of a two-process schedule, otherwise "0,1|2"."""
    return ARROW_NAMES.get(schedule) or "|".join(",".join(map(str, b)) for b in schedule)


Word = tuple  # tuple[Schedule, ...]


def word(*schedules) -> Word:
    return tuple(parse_schedule(s) for s in schedules)


def enumerate_round_schedules(n: int) -> list[Schedule]:
    """All round schedules on n processes, canonical order."""
    if not 1 <= n <= MAX_PROCESSES:
        raise Unsupported(f"round schedules supported for 1..{MAX_PROCESSES} processes")
    return list(ordered_partitions(range(n)))


class ExecutionWord(Frozen):
    """The eventually periodic infinite word stem . cycle^omega."""

    __slots__ = ("stem", "cycle")

    def __init__(self, stem: Word, cycle: Word):
        if not cycle:
            raise ValueError("cycle must be nonempty")
        object.__setattr__(self, "stem", stem)
        object.__setattr__(self, "cycle", cycle)

    def letter(self, i: int) -> Schedule:
        if i < len(self.stem):
            return self.stem[i]
        return self.cycle[(i - len(self.stem)) % len(self.cycle)]

    def prefix(self, length: int) -> Word:
        return tuple(self.letter(i) for i in range(length))

    def normalized(self) -> "ExecutionWord":
        """Canonical form: primitive cycle, stem not absorbable into it."""
        cycle = list(self.cycle)
        for period in range(1, len(cycle)):
            if len(cycle) % period == 0 and cycle == cycle[:period] * (len(cycle) // period):
                cycle = cycle[:period]
                break
        stem = list(self.stem)
        while stem and stem[-1] == cycle[-1]:
            stem.pop()
            cycle = [cycle[-1]] + cycle[:-1]
        return ExecutionWord(tuple(stem), tuple(cycle))

    def __str__(self):
        stem = ",".join(map(schedule_text, self.stem))
        cycle = ",".join(map(schedule_text, self.cycle))
        return f"({stem})({cycle})^w" if stem else f"({cycle})^w"

    def to_json_obj(self):
        return {
            "stem": [[list(b) for b in s] for s in self.stem],
            "cycle": [[list(b) for b in s] for s in self.cycle],
        }

    @classmethod
    def parse(cls, obj) -> "ExecutionWord":
        return cls(_json_rounds(obj["stem"]), _json_rounds(obj["cycle"]))


def _json_rounds(raw) -> Word:
    """Rounds written in JSON: a list whose entries are arrow or "0,1|2"
    strings, or lists of lists of ints.  Anything else raises `Unsupported`
    rather than being coerced."""
    if not isinstance(raw, list):
        raise Unsupported(f"rounds must be a JSON list, not {raw!r}")
    for r in raw:
        if not isinstance(r, str) and not (
            isinstance(r, list)
            and all(isinstance(b, list) and all(type(c) is int for c in b) for b in r)
        ):
            raise Unsupported(f"a round must be a string or a list of lists of ints, not {r!r}")
    return tuple(parse_schedule(r) for r in raw)


PrefixPredicate = Callable[[frozenset, Word], bool]


class ModelSpec(Frozen):
    """A round-based model: which finite schedule prefixes can happen,
    plus finitely many excluded limit executions.

    `allowed_prefix(participants, word)` must be prefix-closed and
    extendable.  Built-in models only restrict full-participation
    words; executions of a proper participation set are unrestricted.
    `kind` is a label only: the fields after it define the model.  The
    predicate is left out of equality and hashing (`_fields`).
    """

    __slots__ = ("n", "name", "kind", "allowed_first_rounds", "excluded", "predicate")

    def __init__(self, n: int, name: str, kind: str, allowed_first_rounds: tuple[Schedule, ...] | None = None,
                 excluded: tuple[ExecutionWord, ...] = (), predicate: PrefixPredicate | None = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "allowed_first_rounds", allowed_first_rounds)
        object.__setattr__(self, "excluded", excluded)
        object.__setattr__(self, "predicate", predicate)

    def _fields(self) -> tuple:
        return (self.n, self.name, self.kind, self.allowed_first_rounds, self.excluded)

    def schedules(self, participants: frozenset) -> list[Schedule]:
        """The round schedules of the given participants, which must be
        processes of this model: a color outside 0..n-1 would silently
        fail every full-participation rule."""
        if len(participants) > MAX_PROCESSES:
            raise Unsupported(f"at most {MAX_PROCESSES} participants supported")
        outside = participants - frozenset(range(self.n))
        if outside:
            raise Unsupported(f"colors {sorted(outside)} are not processes 0..{self.n - 1} of model {self.name}")
        return list(ordered_partitions(participants))

    def allowed_prefix(self, participants: frozenset, prefix: Word) -> bool:
        if len(participants) < self.n:
            return True
        if self.predicate is not None and not self.predicate(participants, prefix):
            return False
        if self.allowed_first_rounds is not None and prefix:
            if prefix[0] not in self.allowed_first_rounds:
                return False
        return True

    def first_refusal(self, participants: frozenset, depth: int) -> int:
        """The least length k <= depth at which a word over `participants`
        is refused, or depth + 1 if none is; below it their time-k
        protocol complex is Chr^k of their simplex.  A proper participation
        set is never restricted, without a predicate only lengths 0 and 1
        can be refused, and a predicate is asked at every length."""
        if len(participants) < self.n:
            return depth + 1
        alphabet = self.schedules(participants)
        for k in range(depth + 1 if self.predicate is not None else min(depth, 1) + 1):
            if not all(self.allowed_prefix(participants, w) for w in product(alphabet, repeat=k)):
                return k
        return depth + 1

    def is_compact(self) -> bool:
        return not self.excluded

    def to_json_obj(self) -> dict:
        obj = {"schema": 1, "n": self.n, "kind": self.kind, "name": self.name}
        if self.allowed_first_rounds is not None:
            obj["allowedFirstRounds"] = [[list(b) for b in s] for s in self.allowed_first_rounds]
        obj["excluded"] = [w.to_json_obj() for w in self.excluded]
        return obj


def enumerate_prefixes(model: ModelSpec, depth: int, participants: frozenset | None = None) -> list[Word]:
    """All allowed schedule words of exactly the given length, in
    lexicographic order of the schedule enumeration.  Excluded limit
    executions remove no finite prefix."""
    if depth < 0:
        raise Unsupported("depth must be nonnegative")
    if participants is None:
        participants = frozenset(range(model.n))
    alphabet = model.schedules(participants)
    words: list[Word] = [()] if model.allowed_prefix(participants, ()) else []
    for _ in range(depth):  # each word in order over the alphabet keeps lexicographic order
        candidates = [prefix + (s,) for prefix in words for s in alphabet]
        words = [w for w in candidates if model.allowed_prefix(participants, w)]
    return words


def is_excluded_limit(model: ModelSpec, w: ExecutionWord) -> bool:
    normal = w.normalized()
    return any(normal == e.normalized() for e in model.excluded)


# -- built-in models -------------------------------------------------------


def iis(n: int) -> ModelSpec:
    if not 1 <= n <= MAX_PROCESSES:
        raise Unsupported(f"built-in models support 1..{MAX_PROCESSES} processes")
    return ModelSpec(n=n, name=f"iis{n}", kind="iis")


def m1() -> ModelSpec:
    """Two-process model whose first round is never the full exchange."""
    return ModelSpec(
        n=2,
        name="m1",
        kind="firstRoundRestricted",
        allowed_first_rounds=(ARROW_SCHEDULES["->"], ARROW_SCHEDULES["<-"]),
    )


def m2() -> ModelSpec:
    """Two-process IIS minus the single execution <->, <-, <-, ..."""
    e = ExecutionWord(word("<->"), word("<-"))
    return ModelSpec(n=2, name="m2", kind="custom", excluded=(e,))


BUILTIN_MODELS: dict[str, Callable[[], ModelSpec]] = {
    "iis2": lambda: iis(2),
    "iis3": lambda: iis(3),
    "ll": lambda: ModelSpec(n=2, name="ll", kind="iis"),
    "m1": m1,
    "m2": m2,
}


def builtin_model(name: str) -> ModelSpec:
    try:
        return BUILTIN_MODELS[name]()
    except KeyError:
        raise Unsupported(f"unknown built-in model {name!r}") from None


def load_model_json_obj(obj: dict) -> ModelSpec:
    """A model from its JSON object; malformed input raises `Unsupported`."""
    if not isinstance(obj, dict):
        raise Unsupported("a model must be a JSON object")
    try:
        n = obj["n"]
        first = obj.get("allowedFirstRounds")
        first_rounds = _json_rounds(first) if first is not None else None
        excluded = tuple(ExecutionWord.parse(e) for e in obj.get("excluded", []))
    except (TypeError, KeyError, ValueError) as exc:  # a missing or malformed nested value
        raise Unsupported(f"malformed model: {exc}") from None
    if type(n) is not int:  # a bool is an int to Python, not to JSON
        raise Unsupported(f"model n must be an integer, not {n!r}")
    if not 1 <= n <= MAX_PROCESSES:
        raise Unsupported(f"models support 1..{MAX_PROCESSES} processes, not {n}")
    kind = obj.get("kind", "custom")
    name = obj.get("name", kind)
    if not isinstance(kind, str) or not isinstance(name, str):
        raise Unsupported(f"model kind and name must be strings, not {kind!r} and {name!r}")
    if first_rounds == ():  # no execution of all the processes would have a first round
        raise Unsupported("allowedFirstRounds must name at least one round")
    for letter in (first_rounds or ()) + tuple(s for e in excluded for s in e.stem + e.cycle):
        if set().union(*letter) != set(range(n)):  # blocks are already disjoint
            raise Unsupported(f"round {schedule_text(letter)} is not an ordered partition of 0..{n - 1}")
    return ModelSpec(
        n=n,
        name=name,
        kind=kind,
        allowed_first_rounds=first_rounds,
        excluded=excluded,
    )
