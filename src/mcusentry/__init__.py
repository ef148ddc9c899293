"""mcusentry: a deterministic 16-bit MCU simulator paired with a
sensing-authorization hardware monitor, an LTL trace checker, and an
adversarial game harness.

The library is organized around five surfaces:

- ``machine``: the cycle-level emulator and its observable records;
- ``monitor``: the three access-control FSMs and their composition;
- ``protocol``: controller/device authorization, verification, sensing;
- ``ltl`` / ``catalogue`` / ``checker``: the property language, the named
  property set, and exhaustive verification with counterexamples;
- ``scenarios`` / ``referee`` / ``oracle``: the security game.
"""

from .errors import (BudgetError, DecodeError, FormulaError, ImageError,
                     LayoutError, McuSentryError, SizeError)
from .isa import Instruction, Op, assemble, decode, encode
from .layout import ErWindow, MemoryLayout, Region, default_layout, parse_layout
from .machine import (ConstantSensor, DmaRequest, Machine, RunContext,
                      SequenceSensor, StateRecord, Trace, exec_step,
                      load_image, reset_routine, run)
from .monitor import GuardFlags, Monitor, MonitorState, monitor_step
from .protocol import (AuthorizationMessage, authorize_ctrl, install,
                       verify_dev, xsensing)
from .crypto import (decrypt_ctrl, decrypt_output, derive_enc_key,
                     encrypt_output, kdf)
from .ltl import Formula, LassoTrace, eval_formula, eval_naive, parse, to_text
from .catalogue import builtin_formulas, all_formulas, catalogue_by_name
from .checker import (CheckResult, brute_force_check, check_catalogue,
                      exhaustive_check, find_mutant_violation, first_violation,
                      replay_counterexample, scaled_space)
from .oracle import atomic_exec_oracle
from .referee import GameOutcome, run_campaign, run_scenario
from .scenarios import CATALOGUE, ScenarioPlan, random_plan

__version__ = "0.1.0"
