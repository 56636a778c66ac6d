"""Exact block-theoretic invariants of finite permutation groups, with
mechanical checks of degree-divisibility correspondences."""

__version__ = "0.1.0"

import sys

from .blocks import block_data, brauer_correspondent
from .chartab import character_table
from .errors import DomainError, GroupFileError, InternalCheckError
from .groupfile import parse_group_file, parse_group_text
from .modular import modular_data
from .permgroup import PermutationGroup
from .report import build_report, collect_verdicts, to_json, to_text


def clear_caches():
    """Empty every cache of the package's loaded modules.

    Tables, blocks, Brauer data, report sections and the other results
    that read only their arguments are memoized for the life of the
    process, with no bound; this frees them, and the groups their keys
    hold.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


__all__ = [
    "PermutationGroup",
    "DomainError",
    "GroupFileError",
    "InternalCheckError",
    "block_data",
    "brauer_correspondent",
    "build_report",
    "character_table",
    "clear_caches",
    "collect_verdicts",
    "modular_data",
    "parse_group_file",
    "parse_group_text",
    "to_json",
    "to_text",
    "__version__",
]
