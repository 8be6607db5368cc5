"""Reserved control-token surfaces.

The vocabulary is open word-level symbols; these three surfaces are reserved
and must never occur as corpus tokens.
"""

FORK = "[Fork]"
CHILD = "[Child]"
EOS = "[EOS]"

CONTROL_TOKENS = frozenset({FORK, CHILD, EOS})


def has_surface(text: str) -> bool:
    """Whether a control surface occurs in the text, as a word or inside one.

    A whole-word surface is also a substring, so False proves the text's
    words and ``CONTROL_TOKENS`` disjoint without hashing a word.  One scan
    per surface, written out: a generator over the set costs more than the
    scans on short texts.
    """
    return FORK in text or CHILD in text or EOS in text
