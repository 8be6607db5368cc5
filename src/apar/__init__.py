"""Auto-parallel auto-regressive decoding: runtime, corpus tools, simulator."""

from .blocks import DEFAULT_BLOCK_SIZE, KvBlockPool
from .engine import DecodeResult, DecodeTrace, apar_decode, apar_step, ar_decode
from .errors import (
    ProtocolError,
    ScriptMismatch,
    SimulationError,
    SimulationInvariantError,
    TreeError,
)
from .runtime import Sequence, SequenceGroup, new_group
from .script import (
    ReplayModel,
    ScriptNode,
    ScriptTree,
    as_linear,
    flatten_script,
    random_script,
)
from .sim import SimConfig, SimReport, StepCostModel, list_script, run_simulation
from .tokens import CHILD, CONTROL_TOKENS, EOS, FORK
from .tree import ParagraphNode, ParagraphTree, restore, validate

__version__ = "0.1.0"
