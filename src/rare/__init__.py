"""Tree-search reasoning with retrieval-augmented actions and factuality-scored
answer selection, plus an offline evaluation harness for multiple-choice QA."""

from .actions import (
    PromptLibrary,
    Scope,
    execute_action,
    extract_answer,
    valid_actions,
)
from .errors import RareError
from .factuality import (
    factuality_record,
    generate_queries,
    rate_statement,
    score_candidates,
    split_statements,
)
from .harness import (
    ABLATION_PRESETS,
    EvalRecord,
    RunReport,
    apply_preset,
    load_dataset,
    run_eval,
    trajectory_stats,
)
from .lm import (
    CostLedger,
    HttpBackend,
    LmRequest,
    LmResponse,
    ScriptedBackend,
    ScriptEntry,
    load_script,
)
from .mcts import (
    SearchTree,
    TreeNode,
    backpropagate,
    expand,
    run_search,
    select,
    simulate,
    terminal_reward,
    uct_score,
)
from .retrieval import Document, RetrievalIndex, build_index, search
from .selection import run_baseline, select_majority, select_rare
from .types import (
    ActionKind,
    ActionStep,
    FactualityReport,
    Question,
    SearchConfig,
    Statement,
    Trajectory,
)

__version__ = "0.1.0"
