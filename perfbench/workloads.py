"""Workload inputs and output checkers for the hgsim benchmark.

Each workload runs one CLI command at one qubit count on inputs drawn from
one distribution, so latency percentiles show the program's jitter rather
than a mix of operations.  A run cycles over a pool of ``POOL`` seeded
inputs in whole rounds.

The checkers never import hgsim.  Every expectation is computed here from
the generated inputs with independent numpy code, or is a property the
method must have; nothing is compared with a stored copy of earlier output.
Each checker returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

POOL = 8  # inputs per round, and operations per round
ROUNDTRIP_N = 14
VERIFY_N = 11
ENTANGLE_N = 11
ORBIT_N = 4
SAMPLED_LABELS = 64
LAMBDA_ATOL = 1e-9
E2_ATOL = 1e-11  # both E2 and lambda are printed with 12 significant digits


@dataclass
class Op:
    """One operation: the CLI calls it makes and what its check needs.

    ``calls`` is a list of argv lists; a call whose stdin is ``None`` reads
    the previous call's stdout (an in-memory pipe).
    """

    calls: list[tuple[list[str], str | None]]
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------- inputs


def random_edges(n: int, rng: np.random.Generator) -> np.ndarray:
    """Edge masks of a uniformly random hypergraph: each of the 2**n - 1
    nonempty vertex subsets is an edge with probability 1/2."""
    masks = np.arange(1, 1 << n, dtype=np.int64)
    return masks[rng.integers(0, 2, size=masks.size, dtype=np.int8) == 1]


def vertices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1]


@lru_cache(maxsize=None)
def _edge_lines(n: int) -> list[str]:
    """The `e v1 v2 ...` line of every mask below 2**n (index 0 unused)."""
    return ["e " + " ".join(map(str, vertices(m))) for m in range(1 << n)]


@lru_cache(maxsize=None)
def _label_prefixes(n: int) -> list[str]:
    return [f"{x} " for x in range(1 << n)]


@lru_cache(maxsize=None)
def _canonical_rank(n: int) -> list[int]:
    """Position of every mask in the order by size, then by vertex tuple."""
    order = sorted(range(1 << n), key=lambda m: (m.bit_count(), vertices(m)))
    rank = [0] * (1 << n)
    for pos, m in enumerate(order):
        rank[m] = pos
    return rank


def graph_text(n: int, edges) -> str:
    """Hypergraph text listing the edge masks in the given order."""
    lines = _edge_lines(n)
    return "\n".join([f"n {n}", *(lines[e] for e in edges)]) + "\n"


def random_table(n: int, rng: np.random.Generator) -> int:
    """A uniformly random normalized truth table (f(0) = 0) as an integer."""
    raw = int.from_bytes(rng.bytes(1 << (n - 3)), "little")
    return raw & ~1


def table_text(n: int, bits: int) -> str:
    return f"n {n}\n{bits:0{(1 << n) // 4}X}\n"


def pm1(bits: int, n: int) -> np.ndarray:
    """The +-1 vector (-1)**f(x) of a table, label x at index x."""
    raw = np.frombuffer(bits.to_bytes((1 << n) // 8, "little"), dtype=np.uint8)
    return 1.0 - 2.0 * np.unpackbits(raw, bitorder="little").astype(np.float64)


def subset_xor(t: np.ndarray, n: int) -> np.ndarray:
    """Out[x] = XOR of t[y] over y contained in x (the transform is its own inverse)."""
    t = t.copy()
    for i in range(n):
        view = t.reshape(-1, 2, 1 << i)
        view[:, 1, :] ^= view[:, 0, :]
    return t


def dump_text(n: int, minus: np.ndarray) -> str:
    """The documented sign-dump format for a 0/1 minus-sign vector."""
    signs = ["-" if m else "+" for m in minus.tolist()]
    lines = map(str.__add__, _label_prefixes(n), signs)
    return "\n".join([f"n {n} backend sign", *lines]) + "\n"


def canonical_graph_text(n: int, edges: np.ndarray) -> str:
    """Hypergraph text with edges by size, then by vertex tuple."""
    return graph_text(n, sorted(edges.tolist(), key=_canonical_rank(n).__getitem__))


def parse_graph(text: str, n: int) -> list[int] | None:
    """Sorted edge masks of a hypergraph text, or None if it is malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != f"n {n}":
        return None
    masks = []
    for ln in lines[1:]:
        fields = ln.split()
        try:
            vs = [int(f) for f in fields[1:]]
        except ValueError:
            return None
        if fields[:1] != ["e"] or not vs or any(a >= b for a, b in zip(vs, vs[1:])):
            return None
        masks.append(sum(1 << (v - 1) for v in vs))
    return sorted(masks)


def make_inputs(workload: str, seed: int, count: int = POOL) -> list[dict]:
    """The first ``count`` inputs of a workload's seeded pool (the same seed,
    the same pool)."""
    if workload == "orbit-report":
        return [{}]  # the command takes no input
    pool = []
    for j in range(count):
        rng = np.random.default_rng([seed, j])
        if workload == "roundtrip-dense":
            edges = random_edges(ROUNDTRIP_N, rng)
            pool.append({"n": ROUNDTRIP_N, "edges": edges,
                         "text": graph_text(ROUNDTRIP_N, edges.tolist()), "rng": rng})
        elif workload == "verify-random":
            edges = random_edges(VERIFY_N, rng)
            pool.append({"n": VERIFY_N, "edges": edges,
                         "text": graph_text(VERIFY_N, edges.tolist())})
        elif workload == "entangle-tables":
            bits = random_table(ENTANGLE_N, rng)
            pool.append({"n": ENTANGLE_N, "bits": bits, "text": table_text(ENTANGLE_N, bits)})
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return pool


def make_op(workload: str, inp: dict) -> Op:
    """The CLI calls of one operation on one input (no expectations yet)."""
    if workload == "roundtrip-dense":
        return Op([(["build", "-"], inp["text"]), (["extract", "-", "--method", "both"], None)])
    if workload == "verify-random":
        return Op([(["verify", "-"], inp["text"])])
    if workload == "entangle-tables":
        return Op([(["entangle", "-"], inp["text"])])
    if workload == "orbit-report":
        return Op([(["orbit", "--n", str(ORBIT_N)], "")])
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------- expectations


def prepare(workload: str, inp: dict, op: Op) -> None:
    """Compute what the check of ``op`` compares against (outside timing)."""
    if workload == "roundtrip-dense":
        n, edges = inp["n"], inp["edges"]
        labels = inp["rng"].choice(1 << n, size=SAMPLED_LABELS, replace=False)
        # sign at label x = parity of the edges contained in x, by definition
        signs = [int(np.count_nonzero((edges & x) == edges) & 1) for x in labels]
        table = subset_xor(np.isin(np.arange(1 << n), edges).astype(np.uint8), n)
        if table[labels].tolist() != signs:
            raise AssertionError("subset-XOR table disagrees with the edge-parity definition")
        op.expect = {
            "n": n,
            "edges": edges,
            "labels": dict(zip(map(int, labels), signs)),
            "dump": dump_text(n, table),
            "graph": canonical_graph_text(n, edges),
        }
    elif workload == "verify-random":
        n, edges = inp["n"], [int(e) for e in inp["edges"]]
        tuples = {
            i: sorted(e ^ (1 << (i - 1)) for e in edges if (e >> (i - 1)) & 1)
            for i in range(1, n + 1)
        }
        op.expect = {"n": n, "tuples": tuples}
    elif workload == "entangle-tables":
        n = inp["n"]
        cuts = cut_order(n)
        v = pm1(inp["bits"], n)
        op.expect = {"n": n, "cuts": cuts, "lambdas": {c: svd_lambda(v, n, c) for c in cuts}}
    elif workload == "orbit-report":
        op.expect = {"report": dense_orbit_report(ORBIT_N)}
    else:
        raise ValueError(f"unknown workload {workload!r}")


def cut_order(n: int) -> list[int]:
    """Documented bipartition order: |A| <= n/2, ties keep vertex 1,
    sorted by size and then by mask."""
    cuts = []
    for size in range(1, n // 2 + 1):
        for combo in combinations(range(n), size):
            mask = sum(1 << q for q in combo)
            if 2 * size < n or mask & 1:
                cuts.append(mask)
    return sorted(cuts, key=lambda m: (m.bit_count(), m))


def svd_lambda(v: np.ndarray, n: int, cut: int) -> float:
    """Top reduced eigenvalue of a +-1 state across a cut: sigma_max**2 / 2**n
    of the (A labels) x (rest labels) reshaping of the +-1 vector."""
    # label bit q is axis n-1-q of the C-ordered [2]*n tensor
    a = [n - 1 - q for q in range(n) if (cut >> q) & 1]
    rest = [n - 1 - q for q in range(n) if not (cut >> q) & 1]
    m = v.reshape([2] * n).transpose(a + rest).reshape(1 << len(a), -1)
    return float(np.linalg.svd(m, compute_uv=False)[0] ** 2 / (1 << n))


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}


def dense_orbit_report(n: int) -> str:
    """The class-inequivalence report from dense matrices: every 4**n Pauli
    word (numpy ``kron``) applied to the amplitude vector of every nonempty
    uniform state, global phase fixed by the amplitude at label 0."""
    words = [np.eye(1, dtype=complex)]
    for _ in range(n):  # qubit 1 ends up least significant
        words = [np.kron(_PAULI[p], w) for w in words for p in "IXYZ"]
    words = np.stack(words)
    x = np.arange(1 << n)
    states, orders = [], []
    for k in range(1, n + 1):
        k_edges = [sum(1 << (v - 1) for v in c) for c in combinations(range(1, n + 1), k)]
        for pick in range(1, 1 << len(k_edges)):
            chosen = [e for j, e in enumerate(k_edges) if (pick >> j) & 1]
            parity = sum(((x & e) == e).astype(int) for e in chosen) & 1
            states.append((1 - 2 * parity) / np.sqrt(1 << n))
            orders.append(k)
    psi = np.array(states).T  # (2**n, states)
    images = words @ psi  # (words, 2**n, states)
    images = images / (images[:, :1, :] / np.abs(images[:, :1, :]))
    scale = 1 / np.sqrt(1 << n)
    if np.max(np.abs(images.imag)) > 1e-9 or np.max(np.abs(np.abs(images.real) - scale)) > 1e-9:
        raise AssertionError("a Pauli image is not an equally weighted real state")
    weights = 1 << x
    keys = ((images.real < 0) * weights[None, :, None]).sum(axis=1)  # (words, states)
    own = ((psi < 0) * weights[:, None]).sum(axis=0)
    orbit = [frozenset(keys[:, s].tolist()) for s in range(psi.shape[1])]
    lines = [f"n {n}"]
    members = {k: {int(own[s]) for s in range(len(orders)) if orders[s] == k}
               for k in range(1, n + 1)}
    total = 0
    for k in range(1, n + 1):
        count = sum(1 for o in orders if o == k)
        if count != (1 << comb(n, k)) - 1:
            raise AssertionError(f"order {k}: {count} states, want 2**C({n},{k}) - 1")
        sizes = [len(orbit[s]) for s in range(len(orders)) if orders[s] == k]
        lines.append(f"uniform {k} states {count} orbit-min {min(sizes)} orbit-max {max(sizes)}")
    for k in range(1, n + 1):
        for kp in range(1, n + 1):
            if kp != k:
                hits = sum(1 for s in range(len(orders))
                           if orders[s] == k and orbit[s] & members[kp])
                total += hits
                lines.append(f"pair {k} {kp} violations {hits}")
    if total != 0:
        raise AssertionError(f"dense orbit computation finds {total} violations")
    lines.append(f"total violations {total}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- checkers


def check(workload: str, expect: dict, codes: list[int], outs: list[str]) -> list[str]:
    """Problems with one operation's exit codes and stdout texts."""
    problems = [f"call {j} exited {c}" for j, c in enumerate(codes) if c != 0]
    checker = {
        "roundtrip-dense": check_roundtrip,
        "verify-random": check_verify,
        "entangle-tables": check_entangle,
        "orbit-report": check_orbit,
    }[workload]
    try:
        return problems + checker(expect, *outs)
    except (ValueError, IndexError) as exc:
        return problems + [f"malformed output ({exc})"]


def check_roundtrip(expect: dict, dump: str, extracted: str) -> list[str]:
    n = expect["n"]
    lines = dump.splitlines()
    if not lines or lines[0] != f"n {n} backend sign":
        return [f"bad dump header {lines[:1]!r}"]
    body = lines[1:]
    if len(body) != 1 << n:
        return [f"dump has {len(body)} lines, want {1 << n}"]
    problems = []
    for x, sign in expect["labels"].items():
        want = f"{x} {'-' if sign else '+'}"
        if body[x] != want:
            problems.append(f"dump line {body[x]!r}, want {want!r}")
    if dump != expect["dump"]:
        want = expect["dump"].splitlines()[1:]
        x = next((x for x in range(1 << n) if body[x] != want[x]), None)
        if x is None:
            problems.append("dump text differs outside its label lines")
        else:
            problems.append(f"dump line {body[x]!r}, the edges' subset-parity table gives {want[x]!r}")
    if extracted != expect["graph"]:
        got = parse_graph(extracted, n)
        if got is None:
            problems.append("malformed extract output")
        elif got != expect["edges"].tolist():
            problems.append(f"extracted {len(got)} edges, generated {len(expect['edges'])}")
    return problems


def _parse_stabilizer(line: str, i: int) -> list[int] | None:
    """Tuple masks of a `stabilizer i X<i> C<k>Z(v,...) ...` line, or None."""
    fields = line.split()
    if fields[:3] != ["stabilizer", str(i), f"X{i}"]:
        return None
    masks = []
    for tok in fields[3:]:
        head, _, rest = tok.partition("Z(")
        if not head.startswith("C") or not rest.endswith(")"):
            return None
        vs = [int(v) for v in rest[:-1].split(",")] if rest != ")" else []
        if int(head[1:]) != len(vs):
            return None
        masks.append(sum(1 << (v - 1) for v in vs))
    return masks


def check_verify(expect: dict, out: str) -> list[str]:
    n = expect["n"]
    lines = out.splitlines()
    want_len = 2 * n + comb(n, 2) + 1
    if len(lines) != want_len:
        return [f"verify printed {len(lines)} lines, want {want_len}"]
    problems = []
    for i in range(1, n + 1):
        masks = _parse_stabilizer(lines[i - 1], i)
        if masks is None:
            problems.append(f"bad stabilizer line for vertex {i}")
        elif sorted(masks) != expect["tuples"][i]:
            problems.append(f"stabilizer {i} tuples differ from the neighbourhood")
    for i in range(1, n + 1):
        if lines[n + i - 1] != f"stabilized {i} pass":
            problems.append(f"line {lines[n + i - 1]!r}")
    pos = 2 * n
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            fields = lines[pos].split()
            pos += 1
            if fields[:4] != ["commutator", str(a), str(b), "residual"] or float(fields[4]) != 0.0:
                problems.append(f"line {lines[pos - 1]!r}")
    if lines[pos] != "uniqueness pass":
        problems.append(f"line {lines[pos]!r}")
    return problems


def check_entangle(expect: dict, out: str) -> list[str]:
    lines = out.splitlines()
    cuts = expect["cuts"]
    if len(lines) != len(cuts) + 1:
        return [f"entangle printed {len(lines)} lines, want {len(cuts) + 1}"]
    problems = []
    lambdas = []
    for ln, cut in zip(lines, cuts):
        fields = ln.split()
        if len(fields) != 4 or fields[0] != "cut" or fields[1] != str(cut) or fields[2] != "lambda":
            return [f"line {ln!r}, want cut {cut}"]
        lambdas.append(float(fields[3]))
    for cut, got in zip(cuts, lambdas):
        lam = expect["lambdas"][cut]
        if abs(got - lam) > LAMBDA_ATOL:
            problems.append(f"cut {cut}: lambda {got!r}, SVD gives {lam!r}")
    fields = lines[-1].split()
    if fields[0] != "E2" or abs(float(fields[1]) - (1.0 - max(lambdas))) > E2_ATOL:
        problems.append(f"last line {lines[-1]!r}, want E2 = 1 - {max(lambdas)!r}")
    return problems


def check_orbit(expect: dict, out: str) -> list[str]:
    if out != expect["report"]:
        return ["orbit report differs from the dense-matrix computation"]
    return []
