"""Static name tables: everything a spec is validated against.

Specs, the CLI and the HTTP client check names — families, search
strategies, workloads, scales, trace kinds and formats — before any
work runs.  Those checks need only the names, so they live here, in a
module that imports nothing beyond the standard library: a spec parses,
validates and digests without loading NumPy or any compute module.

The compute layers build on these tables (:func:`family_for_name
<repro.search.families.family_for_name>` and :func:`strategy_for_name
<repro.search.strategies.strategy_for_name>` parse through
:func:`parse_family` and :func:`parse_strategy`).  The workload table
mirrors the kernel registry (:data:`repro.workloads.registry.SUITES`),
which a test keeps in step with it.
"""

from __future__ import annotations

import re
from pathlib import Path

__all__ = [
    "FAMILY_CHOICES",
    "MAX_HASHED_BITS",
    "SCALES",
    "STRATEGY_CHOICES",
    "TRACE_FORMATS",
    "TRACE_KINDS",
    "WORKLOADS",
    "family_name",
    "infer_trace_format",
    "trace_format",
    "parse_family",
    "parse_strategy",
    "strategy_identity",
]

#: The paper's canonical family names, in table order — the single
#: source for CLI ``choices=`` and spec-boundary error messages.
#: (:func:`parse_family` additionally accepts any ``"<k>-in"``.)
FAMILY_CHOICES = ("1-in", "2-in", "4-in", "16-in", "general")

#: Widest hashed window ``search.n`` a spec may ask for.  The Fig. 1
#: pass bins into a dense histogram — one int64 bin per ``n``-bit vector
#: and capacity — so 24 bits already cost 128 MiB per capacity, though
#: the finished profile keeps only its non-zero bins.
MAX_HASHED_BITS = 24

#: Kernel names per suite, in the paper's table order (Tables 2 and 3).
WORKLOADS = {
    "mibench": (
        "dijkstra",
        "fft",
        "jpeg_enc",
        "jpeg_dec",
        "lame",
        "rijndael",
        "susan",
        "adpcm_dec",
        "adpcm_enc",
        "mpeg2_dec",
    ),
    "powerstone": (
        "adpcm",
        "bcnt",
        "blit",
        "compress",
        "crc",
        "des",
        "engine",
        "fir",
        "g3fax",
        "jpeg",
        "pocsag",
        "qurt",
        "ucbqsort",
        "v42",
    ),
}

#: The scale presets every bundled kernel understands, smallest first.
SCALES = ("tiny", "small", "default", "large")

#: The address streams a workload run can be asked for.
TRACE_KINDS = ("data", "instruction")

#: On-disk trace formats the streaming layer understands.
TRACE_FORMATS = ("bin", "npz", "text", "dinero", "lackey")

_SUFFIX_FORMATS = {
    ".bin": "bin",
    ".npz": "npz",
    ".txt": "text",
    ".text": "text",
    ".din": "dinero",
    ".dinero": "dinero",
    ".lackey": "lackey",
}


def infer_trace_format(path: str | Path) -> str | None:
    """The trace format a file suffix denotes, or ``None`` if unknown."""
    return _SUFFIX_FORMATS.get(Path(path).suffix.lower())


def trace_format(path: str | Path, format: str | None = None) -> str:
    """``format``, else the one the suffix of ``path`` denotes; raises
    ``ValueError`` naming the choices when neither is a known format."""
    choices = ", ".join(TRACE_FORMATS)
    if format is None:
        format = infer_trace_format(path)
        if format is None:
            raise ValueError(
                f"cannot infer the trace format from {str(path)!r}; "
                f"name one of {choices}"
            )
    if format not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {format!r}; choose from {choices}")
    return format


# -- function families --------------------------------------------------------


def parse_family(name: str, n: int) -> tuple[str, int | None]:
    """``(kind, max_fan_in)`` of a family label for an ``n``-bit window.

    ``kind`` is ``"bit-select"``, ``"general"`` or ``"perm"``;
    ``max_fan_in`` is ``None`` when unrestricted.  Accepts
    ``"1-in"``/``"bit-select"``, ``"general"`` and any ``"<k>-in"``
    (permutation-based per Sec. 6, unrestricted once ``k >= n``);
    raises ``ValueError`` otherwise.
    """
    name = name.lower()
    if name in ("1-in", "bit-select", "bitselect"):
        return "bit-select", None
    if name == "general":
        return "general", None
    if name.endswith("-in"):
        fan_in = int(name[:-3])
        if fan_in == 1:
            return "bit-select", None
        if fan_in >= n:
            # Table 2's '16-in' means permutation-based with unrestricted
            # fan-in (Sec. 6 evaluates permutation functions).
            return "perm", None
        if fan_in < 1:
            raise ValueError(f"max_fan_in must be >= 1, got {fan_in}")
        return "perm", fan_in
    raise ValueError(f"unknown family name {name!r}")


def family_name(name: str, n: int) -> str:
    """The canonical name of the family a label denotes — the
    :attr:`FunctionFamily.name <repro.search.families.FunctionFamily.name>`
    results and artifact keys carry."""
    kind, fan_in = parse_family(name, n)
    if kind == "perm" and fan_in is not None:
        return f"perm-{fan_in}in"
    return kind


# -- search strategies --------------------------------------------------------

#: What a spec's ``search.strategy`` may say, for error messages.
STRATEGY_CHOICES = (
    "steepest, first-improvement, beam[:K], anneal[:ITERS[:SEED]], "
    "branch-bound[:NODES], portfolio[:K]"
)

#: Defaults of the parameterized strategies.
BEAM_WIDTH = 4
ANNEAL_ITERATIONS = 4000
ANNEAL_COOLING = 0.995
BRANCH_BOUND_NODES = 100_000

#: Zoo order for ``portfolio:K`` specs: the two descent rules first (they
#: race on shared gathers), then the population and stochastic members.
PORTFOLIO_ZOO = ("steepest", "first-improvement", "beam:4", "anneal")

_BEAM_SPEC = re.compile(r"^beam(?:[:(](\d+)\)?)?$")
_ANNEAL_SPEC = re.compile(r"^anneal(?:[:(](\d+)(?:[:,](\d+))?\)?)?$")
_BRANCH_BOUND_SPEC = re.compile(r"^branch-?(?:and-?)?bound(?:[:(](\d+)\)?)?$")
_PORTFOLIO_SPEC = re.compile(r"^portfolio(?:[:(](\d+)\)?)?$")


def parse_strategy(spec: str) -> tuple[str, dict[str, int]]:
    """``(kind, parameters)`` of a strategy spec string.

    Accepts ``"steepest"``, ``"first-improvement"`` (or ``"first"``),
    ``"beam"`` / ``"beam:8"`` / ``"beam(8)"``, ``"anneal"`` /
    ``"anneal:10000"`` / ``"anneal:10000:7"`` (iterations, seed),
    ``"branch-bound"`` / ``"branch-bound:50000"`` (node budget) and
    ``"portfolio"`` / ``"portfolio:3"`` (the first ``k`` members of
    :data:`PORTFOLIO_ZOO`; default 2).  Omitted parameters take their
    defaults; anything else raises ``ValueError``.
    """
    text = spec.strip().lower()
    if text in ("steepest", "steepest-descent", "descent"):
        return "steepest", {}
    if text in ("first", "first-improvement"):
        return "first-improvement", {}
    match = _BEAM_SPEC.match(text)
    if match:
        width = int(match.group(1)) if match.group(1) else BEAM_WIDTH
        if width < 1:
            raise ValueError(f"beam width must be >= 1, got {width}")
        return "beam", {"width": width}
    match = _ANNEAL_SPEC.match(text)
    if match:
        return "anneal", {
            "iterations": int(match.group(1)) if match.group(1) else ANNEAL_ITERATIONS,
            "seed": int(match.group(2)) if match.group(2) else 0,
        }
    match = _BRANCH_BOUND_SPEC.match(text)
    if match:
        nodes = int(match.group(1)) if match.group(1) else BRANCH_BOUND_NODES
        if nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {nodes}")
        return "branch-bound", {"max_nodes": nodes}
    match = _PORTFOLIO_SPEC.match(text)
    if match:
        k = int(match.group(1)) if match.group(1) else 2
        if not 1 <= k <= len(PORTFOLIO_ZOO):
            raise ValueError(
                f"portfolio size must be in 1..{len(PORTFOLIO_ZOO)}, got {k}"
            )
        return "portfolio", {"size": k}
    raise ValueError(f"unknown search strategy {spec!r}")


def strategy_identity(spec: str) -> tuple[str, bool]:
    """``(name, deterministic)`` of the strategy a spec string denotes:
    the :class:`SearchStrategy <repro.search.strategies.SearchStrategy>`
    properties that enter artifact keys."""
    kind, params = parse_strategy(spec)
    if kind == "beam":
        return f"beam({params['width']})", True
    if kind == "anneal":
        return (
            f"anneal(iters={params['iterations']},cooling={ANNEAL_COOLING},"
            f"seed={params['seed']})",
            False,
        )
    if kind == "branch-bound":
        if params["max_nodes"] == BRANCH_BOUND_NODES:
            return "branch-bound", True
        return f"branch-bound(nodes={params['max_nodes']})", True
    if kind == "portfolio":
        members = [strategy_identity(m) for m in PORTFOLIO_ZOO[: params["size"]]]
        deterministic = all(det for _, det in members)
        inner = "+".join(name for name, _ in members)
        if not deterministic:
            inner += ";seed=0"
        return f"portfolio({inner})", deterministic
    return kind, True
