"""Free-product vector-space engine.

States are linear combinations of reduced tensor words over the free
product of the constituents' underlying spaces (unit vector split off as a
separate vacuum coefficient).  Left-face letters act on the leading block,
right-face letters on the trailing block; both act by left multiplication
inside their constituent's algebra, and means are split off lazily against
the constituent's moment table.

Internally a state is a dict mapping tensor keys to scalars.  A key is a
tuple of int block ids with adjacent tags distinct; block id b stands for
the centered element w - mu_t(w)*1 of constituent t's kernel, where
(t, w) = (tag[b], word[b]) in the registry `_Blocks`.  Each block gets its
id when it is first reached, together with its moment, read from
constituent t's own moment table, and, per acting letter, the id of the
block that letter grows it into, so a step reads moments and grown blocks
by index instead of building and hashing words.  Multilinearity pushes
every linear combination to the outer dict, which is what makes term
merging effective.

Products and convolutions run on integers by dilation: every variable is
scaled by D, the lcm of all denominators in the constituents' moment
tables, so the moment of a word w becomes the integer D^|w|*mu(w) (a
Gaussian integer for complex tables) and each output moment is divided by
its power of D once, at the end; the registry dilates each moment as it
interns the block.  Results are identical to the rational evaluation.

Only the vacuum coefficient is ever read, and one step changes a key's
length by at most one block, so every step is told how many steps are
still to act after it and keeps no key longer than that: such a key could
never come back to the vacuum.  Leaf words of a table walk thus keep only
their vacuum term.  A term that cancels is not deleted: its key keeps a
zero coefficient, which the next step skips and a read takes as zero.

A left letter of one constituent and a right letter of another act as
commuting operators: λ_i(T) and ρ_j(S) commute for i ≠ j (the paper's §2).
`bifree_product` passes that relation to `tabulate`, which steps only the
words' normal forms.  The convolutions pass none, since each of their
letters acts in both constituents, and `joint_moment` walks one word.

The public `TensorState` holds the same blocks as `(family, word)` pairs.
`apply_left`/`apply_right` intern a caller's blocks into a registry of
their own over the marginal's table as given, run the one step on
GaussianRational values, and read the blocks of the result back out.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .dist import Distribution, commutation, tabulate
from .errors import DomainError, SignatureError, TruncationError
from .scalars import ONE, ZERO, Dilation, GaussianRational
from .words import (LEFT, RIGHT, FaceSignature, Letter, Word, format_word,
                    union_signatures)

# ---------------------------------------------------------------------------
# Public state type

TensorWord = tuple  # tuple[tuple[family, Word], ...]


class TensorState:
    """Scalar multiple of the unit vector plus a combination of tensor words.

    A tensor word is a tuple of blocks (family, word); block (t, w) stands
    for the centered element w - mu_t(w)*1 of the kernel of mu_t.  Every
    word is nonempty, adjacent blocks come from distinct families, and zero
    terms are dropped.
    """

    __slots__ = ("vacuum", "terms")

    def __init__(self, vacuum: GaussianRational = ZERO,
                 terms: Mapping[TensorWord, GaussianRational] | None = None):
        terms = terms or {}
        for blocks in terms:
            _check_blocks(blocks)
        self.vacuum = vacuum
        self.terms = {blocks: c for blocks, c in terms.items() if c}

    def __eq__(self, other):
        if not isinstance(other, TensorState):
            return NotImplemented
        return self.vacuum == other.vacuum and self.terms == other.terms

    def __repr__(self):
        return f"TensorState(vacuum={self.vacuum!r}, terms={self.terms!r})"


def vacuum_state() -> TensorState:
    return TensorState(ONE, {})


def vacuum_coefficient(state: TensorState) -> GaussianRational:
    """Expectation: the coefficient of the unit vector."""
    return state.vacuum


def _check_blocks(blocks: TensorWord) -> None:
    for _, word in blocks:
        if not word:
            raise DomainError("tensor blocks are spanned by nonempty words")
    for (a, _), (b, _) in zip(blocks, blocks[1:]):
        if a == b:
            raise DomainError("adjacent tensor blocks must come from distinct families")


# ---------------------------------------------------------------------------
# The single transition shared by the public and the table-building paths.
#
# State keys are tuples of block ids from one `_Blocks` registry; values
# support +, -, * and truthiness (an int, a Gaussian integer, i.e. a
# GaussianRational with int components, or, in apply_left/apply_right, a
# GaussianRational).  A summand (is_left, tag, m_a, single), made by
# `_Blocks.summand`, carries the acting letter's own first moment m_a and
# the id `single` of its one-letter block (tag, (a,)); the registry resolves
# every other moment and grown block.  A block's word is built only when
# `_Blocks.grow` first creates it, which is where a word past the degree
# bound is reported.


class _Blocks:
    """Tensor blocks (tag, word) interned as int ids in order of first reach.

    `tag[b]`, `word[b]` and `moment[b]` describe block b: `word[b]` is a
    tuple of letters and `moment[b]` is `scale(dists[tag].get(word),
    len(word))`, or None for a word no table holds (a caller's block past
    the degree bound, or of a family without a table); a stored moment is
    never None.  `child[(b, s)]` is the block (tag[b], word[s] + word[b])
    for the one-letter block s of an acting letter.  `zero` is the walk's
    typed zero, from which every coefficient a step forms starts.
    """

    __slots__ = ("dists", "scale", "zero", "tag", "word", "moment", "child", "ids")

    def __init__(self, dists: Mapping[object, Distribution], scale, zero):
        self.dists = dists
        self.scale = scale
        self.zero = zero
        self.tag: list = []
        self.word: list = []
        self.moment: list = []
        self.child: dict = {}
        self.ids: dict = {}

    def intern(self, tag, word: Word) -> int:
        block = self.ids.get((tag, word))
        if block is None:
            block = self.ids[(tag, word)] = len(self.tag)
            dist = self.dists.get(tag)
            moment = None if dist is None else dist.get(word)
            self.tag.append(tag)
            self.word.append(word)
            self.moment.append(None if moment is None else self.scale(moment, len(word)))
        return block

    def grow(self, head: int, single: int) -> int:
        tag = self.tag[head]
        word = self.word[single] + self.word[head]
        block = self.intern(tag, word)
        if self.moment[block] is None:
            raise TruncationError(
                f"moment of word {format_word(word)} exceeds degree bound "
                f"{self.dists[tag].degree}"
            )
        self.child[(head, single)] = block
        return block

    def summand(self, tag, letter: Letter):
        """The action of `letter` as a letter of constituent `tag`."""
        single = self.intern(tag, (letter,))
        m_a = self.moment[single]
        if m_a is None:
            raise SignatureError(
                f"letter {format_word((letter,))} is not declared by its marginal"
            )
        return (letter.side == LEFT, tag, m_a, single)


def _apply_step(state: dict, summands, blocks: _Blocks, bound: int) -> dict:
    """One operator step, keeping only the keys of at most `bound` blocks.

    `bound` is the number of steps still to act after this one.  A step
    changes a key's length by at most one block and only the vacuum
    coefficient is ever read, so a key longer than `bound` could never come
    back to it: a key longer than `bound + 1` is skipped, one of exactly
    `bound + 1` blocks gives only its shorter term, and a block is
    prepended or appended only to a key shorter than `bound`.  Terms add
    up from the typed zero `blocks.zero`; a key whose terms cancel keeps a
    zero coefficient, which the next step skips and a read takes as zero.
    """
    tags = blocks.tag
    moments = blocks.moment
    child = blocks.child
    zero = blocks.zero
    out: dict = {}
    get = out.get
    for key, c in state.items():
        n = len(key)
        if n > bound + 1 or not c:
            continue
        keep, extend = n <= bound, n < bound
        for is_left, tag, m_a, single in summands:
            if key:
                head = key[0] if is_left else key[-1]
                if tags[head] == tag:
                    aw = child.get((head, single))
                    if aw is None:
                        aw = blocks.grow(head, single)
                    rest = key[1:] if is_left else key[:-1]
                    m_w0 = moments[head]
                    if keep:
                        grown = (aw,) + rest if is_left else rest + (aw,)
                        out[grown] = get(grown, zero) + c
                        if m_w0:
                            short = (single,) + rest if is_left else rest + (single,)
                            out[short] = get(short, zero) - c * m_w0
                    drop = moments[aw] - m_w0 * m_a if m_w0 else moments[aw]
                    if drop:
                        out[rest] = get(rest, zero) + c * drop
                    continue
            if not keep:
                continue
            if m_a:
                out[key] = get(key, zero) + c * m_a
            if extend:
                longer = (single,) + key if is_left else key + (single,)
                out[longer] = get(longer, zero) + c
    return out


# ---------------------------------------------------------------------------
# Compiled evaluation context


class _EvalContext(Dilation):
    """Constituents of a product, their moments read dilated onto the integers.

    D (`dilation`) is the lcm of the real and imaginary denominators of every
    moment of every constituent.  `blocks` reads constituent t's own moment
    table and holds the moment of a block word w as `dilated(mu_t(w), |w|)`,
    that is D^|w|*mu_t(w): a bare int when every moment is real, a
    GaussianRational with int components otherwise.  `_apply_step` only
    adds, multiplies and negates, and every summand it forms carries the same
    power of D, so the vacuum coefficient after k steps from the unit is D^k
    times the rational one, which `scalar(value, k)` divides out.  `blocks`
    serves every walk of the context.
    """

    def __init__(self, constituents: Sequence[Distribution]):
        dists = dict(enumerate(constituents))
        super().__init__(v for d in dists.values() for v in d.ranked)
        self.blocks = _Blocks(dists, self.dilated, self.zero)


def _walk(ctx: _EvalContext, letter_steps: Mapping[Letter, Sequence]):
    """(start, step, read) of the walk whose letters denote `letter_steps`,
    in the form `tabulate` takes.

    letter_steps maps each output letter to the operator steps it denotes,
    from `_letter_steps`.  Every letter takes the same number of steps, the
    width: 1 for `bifree_product`, `joint_moment` and additive convolution,
    2 for multiplicative convolution.  The state is the bare dict of
    dilated coefficients; a word of n letters has taken width*n steps, so
    its moment is the vacuum coefficient over D^(width*n).  When
    `remaining` more letters can follow, width*remaining steps act after
    the letter's last one, and each earlier step of the letter one more:
    that is each step's bound.
    """
    blocks = ctx.blocks
    (width,) = {len(steps) for steps in letter_steps.values()} or {0}

    def step(letter, state, remaining):
        bound = width * (remaining + 1)
        for s in reversed(letter_steps[letter]):
            bound -= 1
            state = _apply_step(state, s, blocks, bound)
        return state

    def read(state, n):
        return ctx.scalar(state.get((), ctx.zero), width * n)

    return {(): ctx.one}, step, read


def _letter_steps(ctx: _EvalContext, letters, tags) -> dict:
    """`_walk`'s letter_steps: `tags(letter)` gives the letter's steps,
    applied right to left, each a tuple of the constituents in which the
    letter acts, as the sum of its actions there.  One-letter blocks are
    interned in the order of `letters`, then of steps and constituents."""
    summand = ctx.blocks.summand
    return {letter: tuple(tuple(summand(t, letter) for t in step) for step in tags(letter))
            for letter in letters}


def _table(constituents: Sequence[Distribution], signature: FaceSignature, degree: int,
           tags, commuting=None) -> Distribution:
    """Moments of every word of degree <= `degree` over `signature`, each
    letter acting as `tags` says (see `_letter_steps`); `commuting` is
    `tabulate`'s relation."""
    ctx = _EvalContext(constituents)
    return tabulate(signature, degree, *_walk(ctx, _letter_steps(ctx, signature.letters(), tags)),
                    commuting)


# ---------------------------------------------------------------------------
# Public operations


def _apply_side(is_left: bool, family, letter: Letter, state: TensorState,
                marginal: Distribution) -> TensorState:
    side = LEFT if is_left else RIGHT
    if letter.family != family or letter.side != side:
        raise DomainError(
            f"letter {format_word((letter,))} is not a {side}-face letter of "
            f"family {family!r}"
        )
    marginal.signature.family_faces(family)  # DomainError unless declared
    blocks = _Blocks({family: marginal}, lambda value, length: value, ZERO)
    # a block of another family is never grown and its moment never read
    state_ids = {(): state.vacuum}
    for key, coeff in state.terms.items():
        state_ids[tuple(blocks.intern(t, w) for t, w in key)] = coeff
    longest = max(map(len, state_ids))
    state_ids = _apply_step(state_ids, (blocks.summand(family, letter),), blocks, longest + 1)
    vacuum = state_ids.pop((), ZERO)
    return TensorState(vacuum, {
        tuple((blocks.tag[b], blocks.word[b]) for b in ids): coeff
        for ids, coeff in state_ids.items()
    })


def apply_left(family, letter: Letter, state: TensorState,
               marginal: Distribution) -> TensorState:
    """Action of the left operator of `letter` on a tensor state."""
    return _apply_side(True, family, letter, state, marginal)


def apply_right(family, letter: Letter, state: TensorState,
                marginal: Distribution) -> TensorState:
    """Action of the right operator of `letter` on a tensor state."""
    return _apply_side(False, family, letter, state, marginal)


def joint_moment(marginals: Mapping[object, Distribution], word: Word) -> GaussianRational:
    """Moment of `word` under the bi-free joint distribution of the marginals."""
    ctx = _EvalContext(list(marginals.values()))
    tag_of = {family: i for i, family in enumerate(marginals)}

    def tags(letter):
        if letter.family not in tag_of:
            raise DomainError(f"no marginal given for family {letter.family!r}")
        return ((tag_of[letter.family],),)

    state, step, read = _walk(ctx, _letter_steps(ctx, word, tags))
    for n, letter in enumerate(reversed(word), start=1):
        state = step(letter, state, len(word) - n)
    return read(state, len(word))


def bifree_product(marginals: Sequence[Distribution], degree: int) -> Distribution:
    """Joint distribution making the given constituents bi-freely independent.

    Each input distribution is one constituent of the free product; its
    internal (possibly multi-family) structure is preserved verbatim, so
    grouping constituents first and multiplying later gives the same result.

    A left letter of one constituent and a right letter of another act as
    commuting operators: λ_i(T) and ρ_j(S) commute for i ≠ j (Voiculescu,
    "Free probability for pairs of faces I", §2).  The walk passes that
    relation to `tabulate`, so it steps only the normal forms of the words
    and copies every other moment; `check_bifree`'s prediction inherits it.
    """
    for dist in marginals:
        if dist.degree < degree:
            raise TruncationError(
                f"marginal degree {dist.degree} is below requested degree {degree}"
            )
    signature = union_signatures([d.signature for d in marginals])
    tag_of = {fam.family: i for i, dist in enumerate(marginals)
              for fam in dist.signature.families}
    commuting = commutation(signature.letters(), lambda a, b: a.side != b.side
                            and tag_of[a.family] != tag_of[b.family])
    return _table(marginals, signature, degree, lambda letter: ((tag_of[letter.family],),),
                  commuting)


class BifreenessReport(NamedTuple):
    """Differences between a joint distribution and the bi-free prediction."""

    degree: int
    mismatches: tuple[tuple[Word, GaussianRational, GaussianRational], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def lines(self):
        for word, expected, found in self.mismatches:
            yield f"{format_word(word)} : expected {expected} found {found}"


def check_bifree(joint: Distribution, degree: int) -> BifreenessReport:
    """Compare `joint` against the bi-free product of its family restrictions."""
    if joint.degree < degree:
        raise TruncationError(
            f"joint degree {joint.degree} is below requested degree {degree}"
        )
    restrictions = [
        joint.restrict((fam.family,)) for fam in joint.signature.families
    ]
    predicted = bifree_product(restrictions, degree)
    # `joint` may go past `degree`; its words up to `degree` come first
    mismatches = tuple(
        (word, expected, found)
        for word, expected, found in zip(joint.signature.words(degree), predicted.ranked,
                                         joint.ranked)
        if expected != found
    )
    return BifreenessReport(degree, mismatches)
