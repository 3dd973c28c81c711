"""Rule-base persistence and listing (pftables-save / -restore / -L).

The paper envisions OS distributors shipping rule bases in application
packages (§6.3.2); that requires a durable text format.  This module
provides the iptables-save-shaped equivalent::

    *filter
    :input
    :signal_chain
    -A input -o FILE_OPEN -d shadow_t -j DROP
    -A signal_chain -m SIGNAL_MATCH ... -j DROP
    COMMIT
    *mangle
    COMMIT

plus a human-oriented listing with per-rule hit counters
(``pftables -L -v``).
"""

from __future__ import annotations

from typing import List

from repro import errors
from repro.firewall.pftables import pftables
from repro.firewall.rule import RuleBase, TABLES


def save_rules(firewall):
    """Serialize the installed rule base to restorable text."""
    lines = []  # type: List[str]
    for table_name in TABLES:
        table = firewall.rules.table(table_name)
        lines.append("*{}".format(table_name))
        for chain_name in sorted(table.chains):
            lines.append(":{}".format(chain_name))
        for chain_name in sorted(table.chains):
            for rule in table.chains[chain_name]:
                lines.append("-A {} {}".format(chain_name, rule.render()))
        lines.append("COMMIT")
    return "\n".join(lines) + "\n"


def load_rules(firewall, text, flush=True):
    """Restore a rule base from :func:`save_rules` output.

    Returns the number of rules installed.  Unknown directives raise
    :class:`repro.errors.EINVAL`, and a corrupt file must not
    half-apply: parsing happens in a first pass, then installation runs
    against a *staged* rule base that is only left in place when every
    line applied cleanly.  Failures that surface at install time (e.g.
    a ``DROP`` rule in the mangle table, which only the apply step
    rejects) therefore leave the previous rules untouched.  The
    engine's ``stats`` and audit ring are never modified — a
    restore replaces policy, not history.
    """
    table = "filter"
    planned = []  # pftables lines
    declared = []  # (table, chain) declarations
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line == "COMMIT":
            continue
        if line.startswith("*"):
            table = line[1:]
            if table not in TABLES:
                raise errors.EINVAL("unknown table {!r} in saved rules".format(table))
            continue
        if line.startswith(":"):
            # Chain declaration: created up front (like
            # iptables-restore), so empty user chains survive a
            # save/load round-trip.
            declared.append((table, line[1:].strip()))
            continue
        if line.startswith("-A "):
            planned.append("pftables -t {} {}".format(table, line))
            continue
        raise errors.EINVAL("unparseable saved-rules line: {!r}".format(line))

    original = firewall.rules
    staging = RuleBase()
    if not flush:
        # Keep the existing rules ahead of the loaded ones.  The Rule
        # objects themselves are shared with the original base — they
        # are immutable at install time, so grafting them into the
        # staging chains (and reindexing) cannot disturb the original
        # should the swap be rolled back.
        for table_name in TABLES:
            src_table = original.table(table_name)
            dst_table = staging.table(table_name)
            for chain_name, chain in src_table.chains.items():
                if not len(chain) and chain.builtin:
                    continue
                dst_chain = dst_table.chain(chain_name, create=True)
                dst_chain.rules.extend(chain.rules)
                dst_chain._reindex()
        staging.recompute_required_fields()
    for table_name, chain_name in declared:
        staging.table(table_name).chain(chain_name, create=True)

    firewall.rules = staging
    try:
        for line in planned:
            pftables(firewall, line)
    except Exception:
        firewall.rules = original
        raise
    return len(planned)


def list_rules(firewall, verbose=False):
    """Render the rule base for humans (``pftables -L [-v]``).

    With ``verbose``, every rule shows its live hit counter.  When the
    firewall's metrics registry additionally holds data (it was enabled
    while a workload ran), the listing upgrades to the full
    ``iptables -L -v`` shape: chain headers gain traversal counts and
    rules gain drop counts, all read live from
    ``firewall.metrics`` — see ``docs/OBSERVABILITY.md``.
    """
    metrics = getattr(firewall, "metrics", None)
    lines = []
    for table_name in TABLES:
        table = firewall.rules.table(table_name)
        populated = [name for name in sorted(table.chains) if len(table.chains[name])]
        if not populated and table_name != "filter":
            continue
        lines.append("Table: {}".format(table_name))
        for chain_name in sorted(table.chains):
            chain = table.chains[chain_name]
            if not len(chain) and not chain.builtin:
                continue
            policy = "ACCEPT" if chain.builtin else "-"
            header = "Chain {} (policy {})".format(chain_name, policy)
            if verbose and metrics is not None:
                traversals = metrics.value(
                    "pf_chain_traversals_total",
                    {"table": table_name, "chain": chain_name},
                )
                if traversals:
                    header += "  [{} traversals]".format(traversals)
            lines.append(header)
            for i, rule in enumerate(chain, 1):
                prefix = "{:>4}  ".format(i)
                if verbose:
                    prefix += "[{:>6} hits]  ".format(rule.hits)
                    if metrics is not None:
                        drops = metrics.value(
                            "pf_rule_drops_total",
                            {"table": table_name, "chain": chain_name, "rule": rule.text},
                        )
                        if drops:
                            prefix += "[{:>4} drops]  ".format(drops)
                lines.append(prefix + rule.render())
    return "\n".join(lines)
