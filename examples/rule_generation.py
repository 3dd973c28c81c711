#!/usr/bin/env python3
"""The §6.3 rule-generation loop, end to end.

1. Run a workload under a LOG-everything firewall (trace gathering).
2. Classify entrypoints from the trace and suggest T1 rules.
3. Install the suggested rules and verify they block a redirected
   access while leaving the traced behaviour untouched.
4. Show the Table 8 threshold analysis on the synthetic two-week trace.

Run:  python examples/rule_generation.py
"""

from repro import ProcessFirewall, errors
from repro.analysis.tables import format_table
from repro.programs.php import PhpInterpreter
from repro.rulegen.classify import threshold_sweep, zero_fp_threshold
from repro.rulegen.suggest import suggest_rules_from_log
from repro.rulegen.synth import synthesize_trace
from repro.world import build_world, spawn_adversary


def main():
    # ---- 1. trace a PHP application under LOG rules ------------------
    kernel = build_world()
    firewall = kernel.attach_firewall(ProcessFirewall())
    firewall.install("pftables -A input -o FILE_OPEN -j LOG")

    kernel.mkdirs("/var/www/html/app", label="httpd_user_script_exec_t")
    for i in range(4):
        kernel.add_file("/var/www/html/app/page{}.php".format(i), b"<?php ok(); ?>")
    proc = kernel.spawn("php5", uid=0, label="httpd_t", binary_path="/usr/bin/php5")
    php = PhpInterpreter(kernel, proc)
    for round_ in range(30):
        php.include("/var/www/html/app/page{}.php".format(round_ % 4))
    print("traced {} resource accesses".format(len(firewall.audit.records(kind="log"))))

    # ---- 2. suggest rules from the trace -----------------------------
    suggested = suggest_rules_from_log(firewall, threshold=20)
    print("suggested rules:")
    for text in suggested:
        print("  ", text)

    # ---- 3. enforce and verify ---------------------------------------
    firewall.flush()
    firewall.install_all(suggested)
    php.include("/var/www/html/app/page0.php")  # traced behaviour: fine
    print("benign include still works")

    adversary = spawn_adversary(kernel)
    fd = kernel.sys.open(adversary, "/tmp/evil", flags=0x41, mode=0o666)
    kernel.sys.write(adversary, fd, b"<?php system($_GET['cmd']); ?>")
    kernel.sys.close(adversary, fd)
    try:
        php.run_component("/var/www/html/app", "", "../../../../../tmp/evil\x00")
        print("!! inclusion NOT blocked")
    except errors.PFDenied as denied:
        print("adversarial include dropped by:", denied.rule.text)

    # ---- 4. Table 8 on the synthetic two-week trace ------------------
    print()
    records = synthesize_trace()
    rows = threshold_sweep(records)
    print(format_table(
        ["threshold", "high", "low", "both", "rules", "false positives"],
        [(r["threshold"], r["high_only"], r["low_only"], r["both"],
          r["rules_produced"], r["false_positives"]) for r in rows],
        title="Table 8 over the synthetic trace",
    ))
    print("zero-false-positive threshold:", zero_fp_threshold(records), "(paper: 1149)")


if __name__ == "__main__":
    main()
