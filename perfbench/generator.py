"""Seeded synthetic URDF+ models with known bookkeeping.

A model is a random spine tree whose joints cover every supported type
(fixed, revolute, continuous, prismatic, floating, universal with `axis2`
orthogonal to `axis`), plus three kinds of closed-chain gadgets, each
hanging from a spine body with its own fresh bodies:

* a loop: two branches of 1-DoF joints (sometimes one universal joint)
  under the attachment body, closed tip-to-tip by a loop joint of type
  revolute, continuous, prismatic, universal or fixed;
* a coupling: two short chains of one motion kind (all rotational or all
  prismatic), related by a `<coupling>` ratio;
* a mimic pair: two sibling revolute joints, one with `<mimic>`.

Gadgets never share tree joints, so every constraint block acts on its own
columns.  With random axes and origins each loop Jacobian has full row rank
at almost every configuration, so the generator knows, without running the
code under test, the counts every stage must report: n, n_c, n_i, the CDD
edge count and the independent flags that make the count check pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DOF = {"fixed": 0, "revolute": 1, "continuous": 1, "prismatic": 1,
       "universal": 2, "floating": 6}
SPINE_TYPES = ("fixed", "revolute", "continuous", "prismatic", "floating",
               "universal")
LOOP_TYPES = ("revolute", "continuous", "prismatic", "universal", "fixed")


@dataclass(frozen=True)
class Generated:
    """URDF+ text and the counts the pipeline must reproduce from it."""

    text: bytes
    n_links: int
    n_tree_joints: int
    n_loops: int
    n_couplings: int  # explicit <coupling> elements plus <mimic> pairs
    n: int  # tree-joint DoF
    n_c: int  # constraint rows: 6 - dof per loop joint, 1 per coupling
    n_i: int  # expected independent DoF, n - sum(rank K_l)

    @property
    def n_bodies(self) -> int:
        return self.n_links - 1

    @property
    def n_loop_entries(self) -> int:
        return self.n_loops + self.n_couplings

    @property
    def cdd_edges(self) -> int:
        return self.n_bodies + 2 * self.n_loop_entries


def _fmt(values) -> str:
    return " ".join(repr(round(v, 6)) for v in values)


def _fmt_axis(values) -> str:
    # full precision: rounding would break the orthogonality of universal axes
    return " ".join(repr(v) for v in values)


def _unit(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return tuple(x / norm for x in v)


def _orthogonal_unit(rng: random.Random, axis) -> tuple[float, float, float]:
    while True:
        r = _unit(rng)
        c = (axis[1] * r[2] - axis[2] * r[1],
             axis[2] * r[0] - axis[0] * r[2],
             axis[0] * r[1] - axis[1] * r[0])
        norm = math.sqrt(sum(x * x for x in c))
        if norm > 0.1:
            return tuple(x / norm for x in c)


class _Builder:
    def __init__(self, rng: random.Random, name: str):
        self.rng = rng
        self.decks: dict[tuple, list] = {}
        self.name = name
        self.links: list[str] = []
        self.joints: list[str] = []
        self.loops: list[str] = []
        self.couplings: list[str] = []
        self.n = 0
        self.n_c = 0
        self.independent_dof = 0
        self.n_mimic = 0

    def draw(self, items: tuple):
        """Next item of a shuffled deck of `items`, refilled when empty, so
        every seed gets the same mix of joint and gadget kinds."""
        deck = self.decks.setdefault(items, [])
        if not deck:
            deck.extend(items)
            self.rng.shuffle(deck)
        return deck.pop()

    def origin(self, scale: float = 0.3) -> str:
        rng = self.rng
        xyz = [rng.uniform(-scale, scale) for _ in range(3)]
        rpy = [rng.uniform(-math.pi, math.pi) for _ in range(3)]
        return f'<origin xyz="{_fmt(xyz)}" rpy="{_fmt(rpy)}"/>'

    def link(self) -> str:
        rng = self.rng
        name = f"b{len(self.links)}"
        inner = []
        if rng.random() < 0.8:
            ixx, iyy, izz = (rng.uniform(0.01, 0.2) for _ in range(3))
            inner.append(
                "    <inertial>\n"
                f'      <origin xyz="{_fmt([rng.uniform(-0.1, 0.1) for _ in range(3)])}"/>\n'
                f'      <mass value="{round(rng.uniform(0.1, 5.0), 4)!r}"/>\n'
                f'      <inertia ixx="{round(ixx, 5)!r}" ixy="0.0" ixz="0.0" '
                f'iyy="{round(iyy, 5)!r}" iyz="0.0" izz="{round(izz, 5)!r}"/>\n'
                "    </inertial>"
            )
        if rng.random() < 0.3:
            size = _fmt([rng.uniform(0.02, 0.2) for _ in range(3)])
            inner.append(
                f'    <visual><geometry><box size="{size}"/></geometry></visual>'
            )
        if inner:
            self.links.append(f'  <link name="{name}">\n' + "\n".join(inner)
                              + "\n  </link>")
        else:
            self.links.append(f'  <link name="{name}"/>')
        return name

    def joint(self, jtype: str, parent: str, independent: bool,
              mimic: str | None = None) -> tuple[str, str]:
        """Add a fresh child link under `parent`; returns (joint, child)."""
        child = self.link()
        name = f"j{len(self.joints)}"
        flag = "true" if independent else "false"
        lines = [f'  <joint name="{name}" type="{jtype}" independent="{flag}">',
                 "    " + self.origin(),
                 f'    <parent link="{parent}"/>',
                 f'    <child link="{child}"/>']
        if jtype not in ("fixed", "floating"):
            axis = _unit(self.rng)
            lines.append(f'    <axis xyz="{_fmt_axis(axis)}"/>')
            if jtype == "universal":
                axis2 = _orthogonal_unit(self.rng, axis)
                lines.append(f'    <axis2 xyz="{_fmt_axis(axis2)}"/>')
        if jtype in ("revolute", "prismatic"):
            lines.append('    <limit lower="-2.0" upper="2.0" effort="10" velocity="1"/>')
        if mimic is not None:
            ratio = self.ratio()
            lines.append(f'    <mimic joint="{mimic}" multiplier="{ratio!r}"/>')
        lines.append("  </joint>")
        self.joints.append("\n".join(lines))
        self.n += DOF[jtype]
        if independent:
            self.independent_dof += DOF[jtype]
        return name, child

    def ratio(self) -> float:
        return round(self.rng.choice((-1, 1)) * self.rng.uniform(0.5, 3.0), 4)

    def chain(self, parent: str, types: list[str], flags: list[bool]) -> str:
        tip = parent
        for jtype, flag in zip(types, flags):
            _, tip = self.joint(jtype, tip, flag)
        return tip

    def loop_gadget(self, base: str) -> None:
        rng = self.rng
        ltype = self.draw(LOOP_TYPES)
        rows = 6 - DOF[ltype]
        free = self.draw((1, 2))
        # 1-DoF branch joints, at most two prismatic so the rotational rows
        # keep enough revolute columns; sometimes one universal joint
        units: list[str] = []
        dof = 0
        if self.draw((True, False, False)):
            units.append("universal")
            dof += 2
        prismatic = 0
        while dof < rows + free:
            if prismatic < 2 and rng.random() < 0.2:
                units.append("prismatic")
                prismatic += 1
            else:
                units.append(rng.choice(("revolute", "continuous")))
            dof += 1
        rng.shuffle(units)
        # `free` 1-DoF joints are independent; the rest form the square,
        # generically nonsingular dependent block
        single = [i for i, u in enumerate(units) if u != "universal"]
        chosen = set(rng.sample(single, free))
        flags = [i in chosen for i in range(len(units))]
        split = rng.randint(1, len(units) - 1)
        pred = self.chain(base, units[:split], flags[:split])
        succ = self.chain(base, units[split:], flags[split:])
        name = f"loop{len(self.loops)}"
        lines = [f'  <loop name="{name}" type="{ltype}">',
                 f'    <predecessor name="{pred}">',
                 "      " + self.origin(),
                 "    </predecessor>",
                 f'    <successor name="{succ}">',
                 "      " + self.origin(),
                 "    </successor>"]
        if ltype != "fixed":
            axis = _unit(rng)
            lines.append(f'    <axis xyz="{_fmt_axis(axis)}"/>')
            if ltype == "universal":
                lines.append(f'    <axis2 xyz="{_fmt_axis(_orthogonal_unit(rng, axis))}"/>')
        lines.append("  </loop>")
        self.loops.append("\n".join(lines))
        self.n_c += rows

    def coupling_gadget(self, base: str) -> None:
        rng = self.rng
        kinds = self.draw((("prismatic",), ("revolute", "continuous"),
                           ("revolute", "continuous")))
        n_pred, n_succ = rng.randint(1, 2), rng.randint(1, 2)
        pred = self.chain(base, [rng.choice(kinds) for _ in range(n_pred)],
                          [True] * n_pred)
        # the successor tip joint is the dependent coordinate (coefficient -ratio)
        succ = self.chain(base, [rng.choice(kinds) for _ in range(n_succ)],
                          [True] * (n_succ - 1) + [False])
        name = f"coupling{len(self.couplings)}"
        self.couplings.append(
            f'  <coupling name="{name}">\n'
            f'    <predecessor name="{pred}"/>\n'
            f'    <successor name="{succ}"/>\n'
            f'    <ratio value="{self.ratio()!r}"/>\n'
            "  </coupling>"
        )
        self.n_c += 1

    def mimic_gadget(self, base: str) -> None:
        target, _ = self.joint("revolute", base, True)
        # the follower's own coordinate is the dependent one (coefficient +1)
        self.joint("revolute", base, False, mimic=target)
        self.n_mimic += 1
        self.n_c += 1

    def text(self) -> bytes:
        body = "\n".join(self.links + self.joints + self.loops + self.couplings)
        return (f'<?xml version="1.0"?>\n<robot name="{self.name}">\n{body}\n'
                "</robot>\n").encode()


def generate(seed: int, n_bodies: int, n_loops: int,
             name: str = "synthetic") -> Generated:
    """A valid URDF+ model with `n_loops` loop joints, a fifth as many
    couplings and a tenth as many mimic pairs (at least one of each), and
    `n_bodies` bodies when the gadgets leave room for at least one spine
    body each."""
    n_couplings = max(1, n_loops // 5)
    n_mimics = max(1, n_loops // 10)
    rng = random.Random(seed)
    b = _Builder(rng, name)
    spine = [b.link()]

    def grow():
        # a new spine body under one of the last few, so the tree stays deep
        parent = spine[-1 - min(len(spine) - 1, int(rng.expovariate(0.5)))]
        spine.append(b.joint(b.draw(SPINE_TYPES), parent, True)[1])

    gadgets = ["loop"] * n_loops + ["coupling"] * n_couplings + ["mimic"] * n_mimics
    rng.shuffle(gadgets)
    for gadget in gadgets:
        grow()
        getattr(b, f"{gadget}_gadget")(rng.choice(spine[-4:]))
    while len(b.links) < n_bodies + 1:
        grow()
    return Generated(
        text=b.text(),
        n_links=len(b.links),
        n_tree_joints=len(b.joints),
        n_loops=len(b.loops),
        n_couplings=len(b.couplings) + b.n_mimic,
        n=b.n,
        n_c=b.n_c,
        n_i=b.independent_dof,
    )
