"""Reserved control-token surfaces.

The vocabulary is open word-level symbols; these three surfaces are reserved
and must never occur as corpus tokens.
"""

FORK = "[Fork]"
CHILD = "[Child]"
EOS = "[EOS]"

CONTROL_TOKENS = frozenset({FORK, CHILD, EOS})
