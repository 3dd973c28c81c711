#!/usr/bin/env python3
"""TOCTTOU races, scheduled deterministically, and the T2 defence.

Shows the access/open race of a setuid helper losing to an adversary
under an exact interleaving, then the same interleaving with template
T2 rules installed: the kernel records the checked resource's identity
in the process's firewall STATE and drops the mismatched use.

Run:  python examples/toctou_defense.py
"""

from repro import ProcessFirewall, errors
from repro.attacks.toctou import (
    EPT_ACCESS_CHECK,
    EPT_OPEN_USE,
    MAILDIR_FILE,
    MailHelper,
)
from repro.rulesets.default import toctou_rules
from repro.sched.scheduler import Scheduler
from repro.vfs.file import OpenFlags
from repro.world import build_world, spawn_adversary


def run_race(with_firewall):
    kernel = build_world()
    if with_firewall:
        firewall = kernel.attach_firewall(ProcessFirewall())
        rules = toctou_rules(
            "/usr/bin/mail-helper", EPT_ACCESS_CHECK, "FILE_GETATTR", EPT_OPEN_USE, "FILE_OPEN"
        )
        print("installing T2 rules:")
        for text in rules:
            print("  ", text)
        firewall.install_all(rules)

    kernel.add_file("/usr/bin/mail-helper", b"\x7fELF", mode=0o755, label="bin_t")
    victim = kernel.spawn("mail-helper", uid=1000, label="unconfined_t",
                          binary_path="/usr/bin/mail-helper")
    victim.creds.euid = 0  # setuid root
    helper = MailHelper(kernel, victim)
    adversary = spawn_adversary(kernel)
    passwd_before = kernel.lookup("/etc/passwd").data

    def adversary_steps():
        fd = kernel.sys.open(adversary, MAILDIR_FILE,
                             flags=OpenFlags.O_CREAT | OpenFlags.O_WRONLY, mode=0o666)
        kernel.sys.close(adversary, fd)
        yield  # the victim's access() check runs here
        kernel.sys.unlink(adversary, MAILDIR_FILE)
        kernel.sys.symlink(adversary, "/etc/passwd", MAILDIR_FILE)

    sched = Scheduler(policy="scripted",
                      script=["adversary", "victim", "adversary", "victim"])
    sched.add("adversary", adversary_steps())
    sched.add("victim", helper.deliver(MAILDIR_FILE))
    sched.run()
    print("interleaving:", " -> ".join(sched.trace))

    error = sched.get("victim").error
    if isinstance(error, errors.PFDenied):
        print("use call DROPPED: {}".format(error.rule.text))
        print("victim STATE held check identity:", victim.pf.state)
    elif error is not None:
        print("victim failed:", error)
    clobbered = kernel.lookup("/etc/passwd").data != passwd_before
    print("/etc/passwd clobbered:", clobbered)
    return clobbered


def main():
    print("=== stock kernel ===")
    assert run_race(with_firewall=False)
    print()
    print("=== with T2 rules ===")
    assert not run_race(with_firewall=True)


if __name__ == "__main__":
    main()
