import pickle

import pytest
from hypothesis import given

import expertlogic
from expertlogic.formula import (
    And,
    Atom,
    BOT,
    FormulaSyntaxError,
    Iff,
    Imp,
    ModalA,
    ModalE,
    ModalK,
    ModalS,
    Not,
    Or,
    TOP,
    Top,
    UnknownOperatorError,
    atom_names,
    eliminate_expertise,
    in_expertise_language,
    in_ka_fragment,
    in_sa_fragment,
    modal_depth,
    parse,
    render,
    to_knowledge_form,
)
from strategies import formulas

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestParsing:
    def test_implication_chain_desugars_right_associatively(self):
        expected = Not(And(p, Not(Not(And(q, Not(r))))))
        assert parse("p -> q -> r") == expected

    def test_connective_precedence(self):
        assert parse("p | q & r") == Or(p, And(q, r))
        assert parse("(p | q) & r") == And(Or(p, q), r)
        assert parse("~p & q") == And(Not(p), q)
        assert parse("~E p") == Not(ModalE(p))
        assert parse("E p & q") == And(ModalE(p), q)
        assert parse("p & q -> r") == Imp(And(p, q), r)
        assert parse("p <-> q -> r") == Iff(p, Imp(q, r))

    def test_modal_operators(self):
        assert parse("E r & ~E p") == And(ModalE(r), Not(ModalE(p)))
        assert parse("S (r & p)") == ModalS(And(r, p))
        assert parse("A (S p -> p)") == ModalA(Imp(ModalS(p), p))
        assert parse("K ~q") == ModalK(Not(q))
        assert parse("E E p") == ModalE(ModalE(p))

    def test_duals_desugar_to_negations(self):
        assert parse("E^ p") == Not(ModalE(Not(p)))
        assert parse("S^ p") == Not(ModalS(Not(p)))
        assert parse("A^ p") == Not(ModalA(Not(p)))
        assert parse("K^ p") == Not(ModalK(Not(p)))
        assert parse("A^ (S p & ~p)") == Not(ModalA(Not(And(ModalS(p), Not(p)))))

    def test_constants(self):
        assert parse("T") == TOP
        assert parse("F") == BOT == Not(TOP)
        assert parse("T & p") == And(TOP, p)

    def test_iff_desugars_to_conjoined_implications(self):
        assert parse("p <-> q") == And(Imp(p, q), Imp(q, p))

    def test_atom_lexicon(self):
        assert parse("x1_y") == Atom("x1_y")
        assert parse("top") == Atom("top")
        assert atom_names(parse("e & s & a & k & t & f")) == {"e", "s", "a", "k", "t", "f"}

    @pytest.mark.parametrize(
        "text",
        ["", "p &", "& p", "(p", "p)", "p q", "~", "p - q", "p <- q", "1p", "p$"],
    )
    def test_malformed_input_raises_with_position(self, text):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert exc.value.position >= 0

    def test_unknown_capital_is_a_distinct_error(self):
        with pytest.raises(UnknownOperatorError):
            parse("B p")
        with pytest.raises(UnknownOperatorError) as exc:
            parse("p & Xq")
        assert exc.value.position == 4
        # and it is still a syntax error for callers that catch broadly
        assert issubclass(UnknownOperatorError, FormulaSyntaxError)

    def test_nonassociative_iff_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p <-> q <-> r")
        assert parse("p <-> (q <-> r)") == Iff(p, Iff(q, r))


class TestRendering:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p", "p"),
            ("~p", "~p"),
            ("~~p", "~~p"),
            ("p & q & r", "p & q & r"),
            ("p & (q & r)", "p & (q & r)"),
            ("p | q & r", "p | q & r"),
            ("(p | q) & r", "(p | q) & r"),
            ("p -> q -> r", "p -> q -> r"),
            ("p <-> q", "p <-> q"),
            ("a <-> (b <-> c)", "a <-> (b <-> c)"),
            ("T", "T"),
            ("F", "F"),
            ("~T", "F"),
            ("E T", "E T"),
            ("E r & ~E p", "E r & ~E p"),
            ("S (r & p)", "S (r & p)"),
            ("~S (r & p)", "~S (r & p)"),
            ("A (S p -> p)", "A (S p -> p)"),
            ("E (E p)", "E (E p)"),
            ("S ~p", "S ~p"),
        ],
    )
    def test_fixed_points_and_normal_forms(self, text, expected):
        assert render(parse(text)) == expected

    def test_duals_are_not_resugared(self):
        assert render(parse("E^ p")) == "~E ~p"
        assert render(parse("S^ (p -> q)")) == "~S ~(p -> q)"

    def test_tree_reachable_by_two_sugars_prints_as_disjunction(self):
        # (p -> q) -> r and (p & ~q) | r are the same core tree
        assert parse("(p -> q) -> r") == parse("p & ~q | r")
        assert render(parse("(p -> q) -> r")) == "p & ~q | r"

    @pytest.mark.parametrize("text", ["T -> p", "T & T", "K (T -> T)", "top | ~top"])
    def test_constants_and_the_atom_top_print_as_written(self, text):
        assert render(parse(text)) == text

    @given(formulas())
    def test_round_trip(self, f):
        assert parse(render(f)) == f


class TestStructure:
    def test_atom_names(self):
        assert atom_names(parse("E (p -> q) & S r")) == {"p", "q", "r"}
        assert atom_names(parse("T")) == set()

    def test_top_is_a_core_constant(self):
        assert Top() is TOP is expertlogic.Top()
        assert TOP.children == ()
        assert repr(BOT) == "Not(child=Top())"
        assert pickle.loads(pickle.dumps(BOT)) is BOT
        assert parse("top | ~top") != TOP
        assert atom_names(parse("top | ~top")) == {"top"}

    def test_modal_depth(self):
        assert modal_depth(parse("p & ~q")) == 0
        assert modal_depth(parse("E p")) == 1
        assert modal_depth(parse("A (S p -> p)")) == 2
        assert modal_depth(parse("E E S p")) == 3

    def test_language_fragments(self):
        assert in_expertise_language(parse("E p & S q & A r"))
        assert not in_expertise_language(parse("K p"))
        assert in_sa_fragment(parse("S p & A q"))
        assert not in_sa_fragment(parse("E p"))
        assert in_ka_fragment(parse("K p & A q"))
        assert not in_ka_fragment(parse("S p"))


class TestTranslations:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("E p", "A (p -> K p)"),
            ("S q", "~K ~q"),
            ("S ~p", "~K ~~p"),
            ("A p", "A p"),
            ("p & ~q", "p & ~q"),
        ],
    )
    def test_knowledge_form_strings(self, text, expected):
        assert render(to_knowledge_form(parse(text))) == expected

    def test_knowledge_form_rejects_k(self):
        with pytest.raises(ValueError):
            to_knowledge_form(parse("K p"))

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("E p", "A (S p -> p)"),
            ("E E p", "A (S (A (S p -> p)) -> A (S p -> p))"),
            ("S p & A q", "S p & A q"),
        ],
    )
    def test_expertise_elimination_strings(self, text, expected):
        assert render(eliminate_expertise(parse(text))) == expected

    def test_expertise_elimination_rejects_k(self):
        with pytest.raises(ValueError):
            eliminate_expertise(parse("K p"))

    @given(formulas(with_k=False))
    def test_knowledge_form_lands_in_ka_fragment(self, f):
        assert in_ka_fragment(to_knowledge_form(f))

    @given(formulas(with_k=False))
    def test_expertise_elimination_lands_in_sa_fragment(self, f):
        assert in_sa_fragment(eliminate_expertise(f))

    @given(formulas(with_k=False))
    def test_translations_preserve_atoms(self, f):
        assert atom_names(to_knowledge_form(f)) == atom_names(f)
        assert atom_names(eliminate_expertise(f)) == atom_names(f)
