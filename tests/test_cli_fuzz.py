"""Fuzz the CLI with token-level mutations of the example problems: every
input must ground or exit with a documented code, never with an
exception."""

from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sli.cli import main
from sli.parser import tokenize

DATA = Path(__file__).parent / "data"
SOURCES = {
    p.name: [(t.kind, t.text) for t in tokenize(p.read_text(), p.name)[:-1]]
    for p in sorted(DATA.glob("*.sli"))
}
HUGE = "99999999999999999999"  # past 2^64
# per token kind, the lexemes a mutation may put in: the examples' own,
# plus operators and literals they do not use
LEXEMES: dict[str, set[str]] = {
    "op": {"<=>", "?", "*", "<", ">=", "=<", "|"},
    "int": {"0", "2", "7", HUGE},
}
for tokens in SOURCES.values():
    for kind, text in tokens:
        LEXEMES.setdefault(kind, set()).add(text)
KIND_OF = {text: kind for kind, texts in LEXEMES.items() for text in texts}
ALL = sorted(KIND_OF)
BY_KIND = {kind: sorted(texts) for kind, texts in LEXEMES.items()}

# (operation, position, pick): insert puts any lexeme at the position;
# replace swaps the token there for one of its own kind.  Replacements
# keep more inputs parseable, so they are drawn most often, and more of
# the inputs reach the grounder
edits = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete") + ("replace",) * 4),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=2,
)


def mutate(tokens: list[tuple[str, str]], edits) -> str:
    texts = [text for _, text in tokens]
    for op, pos, pick in edits:
        if op == "insert":
            texts.insert(pos % (len(texts) + 1), ALL[pick % len(ALL)])
        elif texts:
            i = pos % len(texts)
            if op == "delete":
                del texts[i]
            else:
                choices = BY_KIND[KIND_OF[texts[i]]]
                texts[i] = choices[pick % len(choices)]
    return " ".join(texts)


@settings(
    derandomize=True,
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(source=st.sampled_from(sorted(SOURCES)), edits=edits)
# the y of queens3's x ~= y becomes a literal past 64 bits
@example(
    source="queens3.sli",
    edits=[("delete", 37, 0), ("insert", 37, ALL.index(HUGE))],
)
def test_mutated_inputs_exit_with_a_documented_code(tmp_path, capsys, source, edits):
    src = tmp_path / "fuzz.sli"
    src.write_text(mutate(SOURCES[source], edits))
    for strategy in ("vec", "naive", "noreduce"):
        rc = main(
            ["ground", str(src), "--strategy", strategy, "--timeout", "2",
             "--out", str(tmp_path / "fuzz.smt2")]
        )
        assert rc in (0, 1, 2, 3)
    capsys.readouterr()
