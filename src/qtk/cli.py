"""Command-line interface.

Commands: validate, betti, volume, intersect, bkk, horizontal, potential,
ann-hilbert, ann-generators, brion, check-all, catalog.  Instances are
catalog names ("catalog:cp2", "hirzebruch?a=2") or paths to bundle JSON
files.  Reports are byte-deterministic; rationals are serialized as strings.

Exit codes: 0 success / verified, 1 mathematical check failed, 2 bad input.
Every command that takes an instance reads it through `_instance`, which
builds the bundle ring before it validates the pair and the base, so a
malformed bundle (Chern data of the wrong rank, a base name that collides
with a divisor or support variable) exits 2 from every command, even when
its pair or base would also fail validation.

Every command runs in a fresh process, so start-up is kept small: the
report digest is hashed with CPython's built-in `_sha256` (`_sha2` from
3.12 on), not `hashlib` (which loads OpenSSL), and the command line is read
by `parse_args`, a small parser over the `COMMANDS` table, not by
`argparse`, whose import (with `gettext`) and first parse (which imports
`locale`) cost 4–10 ms per process.  `main` freezes the start-up heap once
per process, so that the collections at interpreter exit skip it.

`parse_args` keeps argparse's grammar and messages: one command, then its
positional `instance`, `--opt value` and `--opt=value` (a unique prefix of
the option's name will do, and the last value wins), choices, defaults,
required options and ASCII integers.  An option takes the next token as its
value whatever it starts with ("--h -1,0,0", "--classes -x1"), except "--",
which is never a value.  A malformed command line exits 2, writes nothing to
stdout and ends stderr with "qtk: error: ..." or "qtk <command>: error:
...".  -h/--help writes to stdout a usage line and then one line per command
(before a command) or per option (after one), and exits 0.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import basealg as ba
from . import catalog as cat
from . import charpair as cpm
from . import invsys as iv
from . import multipoly as mp
from . import ppbrion as pp
from . import srbundle as sr
from .errors import MalformedInputError, QtkError
from .exact import ascii_int, scalar_str
from .literals import parse_class, parse_gamma, parse_h
from .srbundle import BundleRing

try:  # CPython's built-in SHA-256; hashlib would also load OpenSSL's _hashlib
    from _sha256 import sha256
except ImportError:
    try:  # CPython 3.12 renamed the module to _sha2
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256


# `brion` pads its dimension list with zeros up to --max-degree, so the
# option is capped where that list stays small.
MAX_DEGREE = 10 ** 6
# `check-all` checks its BKK samples in batches of multipoly.CHUNK, so its
# memory does not grow with --samples, but its time does: a million samples
# take 5.3 s on cp2 and 8.4 s on cp3, so --samples is capped there.  A sample
# costs more on larger bundles: about 0.3 ms on P(L0+...+L4) over CP^4, the
# difference of 10100 and 100 samples over 10000.  Timed as one fresh
# `check-all --seed 1` process each, start-up included, on a 2-vCPU host
# with Python 3.11.7.
MAX_SAMPLES = 10 ** 6


class CheckFailure(Exception):
    """A mathematical check failed (exit code 1)."""


# ---------------------------------------------------------------------------
# Instance loading.

def _read_json(path: str):
    """Load a JSON file; one that cannot be opened, decoded or parsed is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise MalformedInputError(f"cannot read JSON file {path}: {exc}") from exc


def _inline_or_path(value, loader_json, base_dir):
    if isinstance(value, str):
        return loader_json(_read_json(os.path.join(base_dir, value)))
    return loader_json(value)


def load_bundle_file(path: str) -> cat.InstanceBundle:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise MalformedInputError(f"bundle file {path} must hold a JSON object")
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        cp = _inline_or_path(data["charpair"], cpm.from_json, base_dir)
        base = _inline_or_path(data["base"], ba.from_json, base_dir)
        chern = _inline_or_path(data["chern"], lambda d: ba.chern_from_json(base, d),
                                base_dir)
    except KeyError as exc:
        raise MalformedInputError(f"bundle file misses key {exc}") from exc
    return cat.InstanceBundle(name=os.path.basename(path), params=(), cp=cp,
                              base=base, chern=chern)


def resolve_instance(spec: str) -> cat.InstanceBundle:
    if spec.startswith("catalog:"):
        return cat.get(spec)
    if os.path.exists(spec):
        return load_bundle_file(spec)
    return cat.get(spec)


def instance_digest(inst: cat.InstanceBundle) -> str:
    payload = {
        "charpair": cpm.to_json(inst.cp),
        "base": ba.to_json(inst.base),
        "chern": ba.chern_to_json(inst.base, inst.chern),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Report rendering.

def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"command: {report['command']}"]
    for key, value in sorted(report.get("input", {}).items()):
        lines.append(f"input.{key}: {value}")
    lines.extend(_render_tree("result", report.get("result")))
    return "\n".join(lines) + "\n"


def _render_tree(prefix: str, value) -> list[str]:
    if isinstance(value, dict):
        out = []
        for k in sorted(value):
            out.extend(_render_tree(f"{prefix}.{k}", value[k]))
        return out
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        out = []
        for i, v in enumerate(value):
            out.extend(_render_tree(f"{prefix}[{i}]", v))
        return out
    return [f"{prefix}: {value}"]


def _report(command: str, inst: cat.InstanceBundle | None, extra_input: dict,
            result: dict) -> dict:
    inp = dict(extra_input)
    if inst is not None:
        inp["instance"] = inst.label
        inp["digest"] = instance_digest(inst)
    return {"command": command, "input": inp, "result": result}


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (report, exit_code).

def _instance(spec: str):
    """The instance spec names, its ring, and the validation reports of its
    pair and its base; the ring is built, and may raise, before either is
    validated."""
    inst = resolve_instance(spec)
    ring = inst.ring()
    return inst, ring, cpm.validate(inst.cp), inst.base.validate()


def _require_valid(pair_rep, base_rep) -> None:
    if not pair_rep.ok:
        raise CheckFailure("characteristic pair fails validation")
    if not base_rep.ok:
        raise CheckFailure("base algebra fails validation")


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise MalformedInputError(f"--samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise MalformedInputError(f"--samples must be at most {MAX_SAMPLES}, got {samples}")


def _require_max_degree(max_degree: int | None) -> None:
    if max_degree is None:
        return
    if max_degree < 0:
        raise MalformedInputError(f"--max-degree must be non-negative, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise MalformedInputError(f"--max-degree must be at most {MAX_DEGREE}, got {max_degree}")


def _seed(default: int) -> int:
    """QTK_SEED overrides --seed; it must be an integer."""
    raw = os.environ.get("QTK_SEED")
    if raw is None:
        return default
    try:
        return ascii_int(raw)
    except ValueError:
        raise MalformedInputError(f"QTK_SEED must be an integer, got {raw!r}") from None


def cmd_validate(args) -> tuple[dict, int]:
    results = []
    all_ok = True
    for spec in args.instance:
        inst, _, pair_rep, base_rep = _instance(spec)
        ok = pair_rep.ok and base_rep.ok
        all_ok = all_ok and ok
        results.append({
            "instance": inst.label,
            "digest": instance_digest(inst),
            "charpair": pair_rep.as_dict(),
            "base": base_rep.as_dict(),
            "ok": ok,
        })
    report = {"command": "validate", "input": {"instances": list(args.instance)},
              "result": {"instances": results, "ok": all_ok}}
    return report, 0 if all_ok else 1


def cmd_betti(args) -> tuple[dict, int]:
    inst, ring, *reports = _instance(args.instance)
    _require_valid(*reports)
    dims = sr.betti(ring)
    return _report("betti", inst, {}, {"dims": dims, "total": sum(dims)}), 0


def cmd_volume(args) -> tuple[dict, int]:
    inst, _, *reports = _instance(args.instance)
    _require_valid(*reports)
    h = parse_h(args.h, inst.cp.s)
    val = mp.volume(inst.cp, h)
    return _report("volume", inst, {"h": args.h},
                   {"volume": scalar_str(val)}), 0


def cmd_intersect(args) -> tuple[dict, int]:
    inst, ring, *reports = _instance(args.instance)
    _require_valid(*reports)
    classes = [parse_class(ring, lit) for lit in args.classes.split(";") if lit.strip()]
    gamma = parse_gamma(ring, args.gamma)
    val = sr.intersection_number(ring, classes, gamma)
    return _report("intersect", inst, {"classes": args.classes, "gamma": args.gamma},
                   {"value": scalar_str(val)}), 0


def cmd_bkk(args) -> tuple[dict, int]:
    inst, ring, *reports = _instance(args.instance)
    _require_valid(*reports)
    gamma = parse_gamma(ring, args.gamma)
    h = parse_h(args.h, inst.cp.s)
    lhs, rhs = mp.bkk_sides(ring, gamma, args.i, h)
    report = _report("bkk", inst, {"gamma": args.gamma, "i": args.i, "h": args.h}, {
        "lhs": scalar_str(lhs),
        "rhs": scalar_str(rhs),
        "equal": lhs == rhs,
    })
    return report, 0 if lhs == rhs else 1


def cmd_horizontal(args) -> tuple[dict, int]:
    inst, ring, *reports = _instance(args.instance)
    _require_valid(*reports)
    h = parse_h(args.h, inst.cp.s)
    el = mp.horizontal_part(ring, h, args.i)
    result = {
        "class": {ring.base.names[idx]: scalar_str(c) for idx, c in sorted(el.items())},
        "pretty": ba.el_str(ring.base, el),
    }
    return _report("horizontal", inst, {"h": args.h, "i": args.i}, result), 0


def cmd_potential(args) -> tuple[dict, int]:
    inst, ring, *reports = _instance(args.instance)
    _require_valid(*reports)
    builder = iv.bundle_potential_integral if args.mode == "integral" \
        else iv.bundle_potential_direct
    pot = builder(ring)
    return _report("potential", inst, {"mode": args.mode},
                   {"potential": pot.to_json(),
                    "pretty": pot.poly.to_str(pot.var_names)}), 0


def cmd_ann_hilbert(args) -> tuple[dict, int]:
    inst, ring, *reports = _instance(args.instance)
    _require_valid(*reports)
    pot = iv.bundle_potential_integral(ring)
    return _report("ann-hilbert", inst, {}, iv.hilbert_json(iv.ann_hilbert(pot))), 0


def cmd_ann_generators(args) -> tuple[dict, int]:
    _require_max_degree(args.max_degree)
    inst, ring, *reports = _instance(args.instance)
    _require_valid(*reports)
    pot = iv.bundle_potential_integral(ring)
    gens = iv.ann_generators(pot, args.max_degree)
    result = {
        str(d): [g.to_str(pot.var_names) for g in gs]
        for d, gs in sorted(gens.items())
    }
    return _report("ann-generators", inst, {"max_degree": args.max_degree},
                   {"generators_by_weighted_degree": result}), 0


def cmd_brion(args) -> tuple[dict, int]:
    _require_max_degree(args.max_degree)
    inst, ring, *reports = _instance(args.instance)
    _require_valid(*reports)
    bundle_dims, fiber = pp.brion_bundle_dims(ring, args.max_degree)
    return _report("brion", inst, {"max_degree": args.max_degree},
                   {"bundle_dims": bundle_dims, "fiber_quotient_dims": fiber}), 0


# The sampled support entries k/den, one tuple per den = 1..4, |k| <= 3*den.
# An index below n into a tuple of n draws the same random number as randint
# over n values, so this stream equals that of randint(1, 4), randint(-3den,
# 3den).  All are Fractions, which bkk_check clears without a conversion.
_SUPPORT_ENTRIES = tuple(tuple(Fraction(k, den) for k in range(-3 * den, 3 * den + 1))
                         for den in (1, 2, 3, 4))


def _bkk_samples(ring: BundleRing, count: int, seed: int):
    """count samples (gamma, i, h) drawn from random.Random(seed).

    Each draw is random.Random.choice with its rejection loop written out:
    an index below n is getrandbits(n.bit_length()), redrawn while it is n
    or more.  Choosing from range(k//2 + 1) draws what randint(0, k//2)
    draws, so the stream is that of randint.  Every gamma is {index: 1}
    with one shared Fraction(1), which bkk_check then compares by identity.
    """
    bits = random.Random(seed).getrandbits
    k = ring.base.top
    degrees = k // 2 + 1
    degree_bits = degrees.bit_length()
    candidates = [ring.base.indices_of_degree(k - 2 * i) for i in range(degrees)]
    candidate_bits = [len(c).bit_length() for c in candidates]
    entries = [(len(e), len(e).bit_length(), e) for e in _SUPPORT_ENTRIES]
    dens = len(entries)
    den_bits = dens.bit_length()
    s = ring.cp.s
    one = Fraction(1)
    for _ in range(count):
        while True:
            i = bits(degree_bits)
            while i >= degrees:
                i = bits(degree_bits)
            if candidates[i]:
                break
        r, size = bits(candidate_bits[i]), len(candidates[i])
        while r >= size:
            r = bits(candidate_bits[i])
        gamma = {candidates[i][r]: one}
        h = []
        for _ in range(s):
            r = bits(den_bits)
            while r >= dens:
                r = bits(den_bits)
            size, width, values = entries[r]
            r = bits(width)
            while r >= size:
                r = bits(width)
            h.append(values[r])
        yield gamma, i, h


def cmd_check_all(args) -> tuple[dict, int]:
    _require_samples(args.samples)
    seed = _seed(args.seed)
    inst, ring, pair_rep, base_rep = _instance(args.instance)
    result: dict = {"validation": pair_rep.ok and base_rep.ok}
    if not result["validation"]:
        report = _report("check-all", inst, {}, dict(result, ok=False))
        return report, 1
    dims = sr.betti(ring)
    brion, _ = pp.brion_bundle_dims(ring)
    result["betti"] = dims
    result["brion_dims"] = brion
    result["betti_equals_brion"] = dims == brion
    even_base = not any(d % 2 for d in ring.base.degrees)
    if even_base:
        pot = iv.bundle_potential_integral(ring)
        even = list(iv.ann_hilbert(pot)[0::2])
        result["ann_hilbert_even"] = even
        result["betti_even"] = dims[0::2]
        result["hilbert_matches"] = even == dims[0::2]
    else:  # the apolar Hilbert function is only defined over even bases
        result["hilbert_matches"] = "skipped"
        result["ann_hilbert_even"] = None
    failures = [{"gamma": ba.el_str(ring.base, gamma), "i": i,
                 "h": [scalar_str(v) for v in h],
                 "lhs": scalar_str(lhs), "rhs": scalar_str(rhs)}
                for gamma, i, h, lhs, rhs
                in mp.bkk_check(ring, _bkk_samples(ring, args.samples, seed))]
    result["bkk_samples"] = args.samples
    result["bkk_seed"] = seed
    result["bkk_failures"] = failures
    result["bkk_ok"] = not failures
    # A skipped check is neither passed nor failed: ok needs every check made.
    ok = all(result[k] for k in ("betti_equals_brion", "hilbert_matches", "bkk_ok")
             if result[k] != "skipped")
    result["ok"] = ok
    return _report("check-all", inst, {"samples": args.samples, "seed": seed},
                   result), 0 if ok else 1


def cmd_catalog(args) -> tuple[dict, int]:
    entries = [{"name": name, "description": description}
               for name, (description, _, _) in cat.CATALOG.items()]
    return {"command": "catalog", "input": {},
            "result": {"instances": entries}}, 0


# ---------------------------------------------------------------------------
# Argument parsing.

_INSTANCE = ("instance", {"help": "catalog name or bundle file"})
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})

# One entry per subcommand: name -> (help, function, options).  An option is
# (name, keywords): "instance" is the positional, the rest are "--" options;
# the keywords are nargs ("+"), help, choices, default, required and type
# (ascii_int), with argparse's meanings.
COMMANDS = {
    "validate": ("validate instances", cmd_validate, (
        ("instance", {"nargs": "+", "help": "catalog name or bundle file"}), _FORMAT)),
    "betti": ("graded dimensions of the bundle ring", cmd_betti, (_INSTANCE, _FORMAT)),
    "volume": ("signed volume of a multi-polytope", cmd_volume, (
        _INSTANCE, _FORMAT,
        ("--h", {"required": True, "help": "support numbers, e.g. 1,1/2,-3"}))),
    "intersect": ("top intersection number of classes", cmd_intersect, (
        _INSTANCE, _FORMAT,
        ("--classes", {"required": True, "help": "semicolon-separated class literals"}),
        ("--gamma", {"default": "1", "help": "base class literal"}))),
    "bkk": ("compare integral and intersection pipelines", cmd_bkk, (
        _INSTANCE, _FORMAT, ("--gamma", {"default": "1"}),
        ("--i", {"type": ascii_int, "default": 0}), ("--h", {"required": True}))),
    "horizontal": ("horizontal part of a power of rho", cmd_horizontal, (
        _INSTANCE, _FORMAT, ("--h", {"required": True}),
        ("--i", {"type": ascii_int, "default": 0}))),
    "potential": ("bundle potential", cmd_potential, (
        _INSTANCE, _FORMAT,
        ("--mode", {"choices": ("integral", "direct"), "default": "integral"}))),
    "ann-hilbert": ("Hilbert function of the potential quotient", cmd_ann_hilbert,
                    (_INSTANCE, _FORMAT)),
    "ann-generators": ("annihilator generators of the potential", cmd_ann_generators, (
        _INSTANCE, _FORMAT, ("--max-degree", {"type": ascii_int, "default": None}))),
    "brion": ("piecewise-polynomial quotient dimensions", cmd_brion, (
        _INSTANCE, _FORMAT, ("--max-degree", {"type": ascii_int, "default": None}))),
    "check-all": ("cross-check all three presentations", cmd_check_all, (
        _INSTANCE, _FORMAT, ("--samples", {"type": ascii_int, "default": 20}),
        ("--seed", {"type": ascii_int, "default": 0}))),
    "catalog": ("list built-in instances", cmd_catalog, (_FORMAT,)),
}


# A token that starts with "-" and names no option is still a value when it
# is a negative number; argparse's own pattern.
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _fail(prog: str, usage: str, message: str):
    """Report a malformed command line as argparse does, and exit 2."""
    sys.stderr.write(f"usage: {usage}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _read_option(token: str, names: tuple[str, ...], prog: str, usage: str):
    """How argparse reads `token` against the long option `names`.

    None for a positional, else (name, explicit): name is "-h", one of
    `names` (given in full or by a unique prefix) or "" for an unknown
    option; explicit is the text after "=" (or after "-h"), else None.
    """
    if not token.startswith("-") or token == "-":
        return None
    if token == "-h" or token in names:
        return token, None
    head, eq, tail = token.partition("=")
    if eq and (head == "-h" or head in names):
        return head, tail
    if token[1] == "-":
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            _fail(prog, usage, f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], tail if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    if re.match(_NEGATIVE_NUMBER, token) or " " in token:
        return None
    return "", None


def _help(prog: str, usage: str, name: str, explicit, rows: list[tuple[str, str]]):
    """-h/--help: write the usage line and one line per row, and exit 0.

    As in argparse, "-hh" asks for help twice, and any other text after
    "-h" or "--help=" is an error.
    """
    if explicit is not None:
        rest = explicit.lstrip("h") if name == "-h" else explicit
        if rest or not explicit:
            _fail(prog, usage, f"argument -h/--help: ignored explicit argument {rest!r}")
    width = max(len(left) for left, _ in rows) + 2
    sys.stdout.write(f"usage: {usage}\n" + "".join(
        f"  {left:<{width}}{right}".rstrip() + "\n" for left, right in rows))
    raise SystemExit(0)


def _metavar(option: str, keywords: dict) -> str:
    choices = keywords.get("choices")
    return "{" + ",".join(choices) + "}" if choices else option[2:].upper().replace("-", "_")


def _option_value(prog: str, usage: str, option: str, keywords: dict, text: str):
    """An option's value from its text, checked against its type and choices."""
    if "type" in keywords:
        try:
            return keywords["type"](text)
        except ValueError:  # the one type is ascii_int
            _fail(prog, usage, f"argument {option}: invalid int value: {text!r}")
    choices = keywords.get("choices")
    if choices is not None and text not in choices:
        _fail(prog, usage, f"argument {option}: invalid choice: {text!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
    return text


def _usage(command: str, table) -> str:
    options, positionals = [f"qtk {command} [-h]"], []
    for option, keywords in table:
        if not option.startswith("--"):
            positionals.append(f"{option} [{option} ...]" if keywords.get("nargs") == "+"
                               else option)
        elif keywords.get("required"):
            options.append(f"{option} {_metavar(option, keywords)}")
        else:
            options.append(f"[{option} {_metavar(option, keywords)}]")
    return " ".join(options + positionals)


def _help_rows(table) -> list[tuple[str, str]]:
    rows = [("-h, --help", "show this help and exit")]
    for option, keywords in table:
        notes = [keywords.get("help", "")]
        if keywords.get("required"):
            notes.append("(required)")
        elif keywords.get("default") is not None:
            notes.append(f"(default: {keywords['default']})")
        rows.append((f"{option} {_metavar(option, keywords)}" if option.startswith("--")
                     else option, " ".join(filter(None, notes))))
    return rows


def _read_tokens(tokens: list[str], options: dict, prog: str, usage: str) -> list[tuple]:
    """Classify every token before any is used, as argparse does, so that an
    ambiguous prefix is reported before any value is checked.

    Items: ("pos", token); ("--", "--") for the first "--", after which
    every token is positional; ("", token) for an unknown option; ("-h" or
    "--help", explicit); and (option, value), value None where it is
    missing.  An option takes the next token as its value whatever it
    starts with, except "--", which is never a value ("--opt=--" neither).
    """
    names = ("--help", *options)
    items = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token == "--":
            return items + [("--", token)] + [("pos", rest) for rest in tokens[i:]]
        option = _read_option(token, names, prog, usage)
        if option is None:
            items.append(("pos", token))
        elif option[0] == "":
            items.append(("", token))
        elif option[0] in options:
            name, value = option
            if value is None and i < len(tokens) and tokens[i] != "--":
                value = tokens[i]
                i += 1
            items.append((name, None if value == "--" else value))
        else:
            items.append(option)
    return items


def _parse_command(command: str, tokens: list[str]) -> tuple[dict, list[str]]:
    """`command`'s values, by attribute name, and the tokens it does not
    recognize, from the tokens that follow the command name."""
    table = COMMANDS[command][2]
    prog, usage = f"qtk {command}", _usage(command, table)
    options = {option: keywords for option, keywords in table if option.startswith("--")}
    positional = next((option for option, _ in table if option not in options), None)
    values = {option: keywords.get("default") for option, keywords in table}
    seen, extras, run = set(), [], []
    for kind, value in _read_tokens(tokens, options, prog, usage) + [("end", None)]:
        if kind in ("pos", "--"):
            run.append((kind, value))
            continue
        # The first run of positional tokens that holds more than "--" fills
        # the positional: with all of them for nargs "+", else with the
        # first one and a "--" next to it.  What is left is unrecognized.
        if positional and positional not in seen and any(k == "pos" for k, _ in run):
            seen.add(positional)
            if dict(table)[positional].get("nargs") == "+":
                values[positional] = [v for k, v in run if k == "pos"]
                run = []
            else:
                first = next(j for j, (k, _) in enumerate(run) if k == "pos")
                values[positional] = run[first][1]
                run = run[first + 1:]
                if run and run[0][0] == "--":
                    run = run[1:]
        extras.extend(v for _, v in run)
        run = []
        if kind == "":
            extras.append(value)
        elif kind in options:
            if value is None:
                _fail(prog, usage, f"argument {kind}: expected one argument")
            values[kind] = _option_value(prog, usage, kind, options[kind], value)
            seen.add(kind)
        elif kind != "end":
            _help(prog, usage, kind, value, _help_rows(table))
    missing = [option for option, keywords in table if option not in seen
               and (option == positional or keywords.get("required"))]
    if missing:
        _fail(prog, usage, f"the following arguments are required: {', '.join(missing)}")
    return {option.lstrip("-").replace("-", "_"): value
            for option, value in values.items()}, extras


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command line read as argparse read it: `command`, `func` and one
    attribute per option of that command.  A malformed command line exits 2
    with argparse's message; -h/--help writes help and exits 0."""
    usage = "qtk [-h] {" + ",".join(COMMANDS) + "} ..."
    extras = []
    for i, token in enumerate(argv):
        # argparse hands "--" and what follows to the command name, which
        # "--" is not; a last "--" is left over.
        if token == "--" and i + 1 == len(argv):
            extras.append(token)
            break
        option = None if token == "--" else _read_option(token, ("--help",), "qtk", usage)
        if option is None:
            if token not in COMMANDS:
                _fail("qtk", usage, f"argument command: invalid choice: {token!r} "
                                    f"(choose from {', '.join(map(repr, COMMANDS))})")
            values, rest = _parse_command(token, argv[i + 1:])
            if extras + rest:
                _fail("qtk", usage, f"unrecognized arguments: {' '.join(extras + rest)}")
            return SimpleNamespace(command=token, func=COMMANDS[token][1], **values)
        if option[0]:
            _help("qtk", usage, option[0], option[1],
                  [("-h, --help", "show this help and exit")]
                  + [(name, help_) for name, (help_, _, _) in COMMANDS.items()])
        extras.append(token)
    _fail("qtk", usage, "the following arguments are required: command")


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    `main` is the process entry (the `qtk` console script, `python -m
    qtk.cli`), so it first freezes the heap: everything alive now, the
    interpreter's start-up objects and qtk's modules and tables, lives until
    the process exits anyway, and the collections at interpreter exit would
    otherwise walk all of it (about 5 ms per process, more than most
    catalog-sized jobs take).  Frozen objects are still freed by reference
    count, and the collector runs as before on what the command allocates.
    It freezes only once per process: a caller that runs `main` again in the
    same process would otherwise make the cyclic garbage pending at each
    call immortal.  Importing `qtk.cli`, or calling the library, freezes
    nothing.
    """
    if not gc.get_freeze_count():
        gc.freeze()
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        report, code = args.func(args)
    except CheckFailure as exc:
        sys.stdout.write(json.dumps(
            {"command": args.command, "error": str(exc), "ok": False},
            sort_keys=True, indent=2) + "\n")
        return 1
    except QtkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(render(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
