"""Adversary accessibility (paper §2, footnote 2).

    "A resource is adversary accessible if the OS access control policy
    grants an adversary of the current process permissions to the
    resource.  In UNIX DAC, an adversary is a user with a different UID
    (except root) ... Write permissions to the resource lead to integrity
    attacks and read permissions to secrecy attacks."

The :class:`AdversaryModel` combines the DAC and MAC views:

- **DAC**: adversaries of a process are all known UIDs other than root
  and the process's own effective UID.  (Users are modelled with private
  groups, gid == uid, the common Debian/Ubuntu convention.)
- **MAC**: adversaries are all subject types outside the policy's TCB
  (SYSHIGH) set, excluding the process's own label.

A resource is *low integrity* for a process when some adversary can
write it, and *low secrecy* when some adversary can read it.  This is
the resource context consumed by firewall matches like ``-d ~{SYSHIGH}``.
"""

from __future__ import annotations

from repro.security import dac
from repro.vfs.inode import FileType


class AdversaryModel:
    """Computes adversary accessibility against DAC + optional MAC."""

    def __init__(self, policy=None, known_uids=None):
        #: Optional :class:`repro.security.selinux.SELinuxPolicy`.
        self.policy = policy
        #: The system's user population for DAC reasoning.
        self.known_uids = set(known_uids or {0})
        #: Bumped whenever the adversary population grows: a new user
        #: is a new potential adversary for every process, so every
        #: memoized resolution (the walk cache's stamp) must be
        #: recomputed.
        self.epoch = 0

    def register_uid(self, uid):
        if uid not in self.known_uids:
            self.known_uids.add(uid)
            self.epoch += 1

    # ------------------------------------------------------------------
    # DAC view
    # ------------------------------------------------------------------

    def dac_adversaries(self, proc):
        """UIDs that are adversaries of ``proc`` under DAC."""
        return {uid for uid in self.known_uids if uid != 0 and uid != proc.creds.euid}

    def dac_adversary_writable(self, proc, inode):
        advs = self.dac_adversaries(proc)
        if getattr(inode, "itype", None) is FileType.LNK:
            # Symlink inodes always carry mode 0777; what matters is who
            # can *replace* the link, which (under sticky-/tmp semantics)
            # is its owner.  Treat a link as adversary-controlled when an
            # adversary owns it.
            return inode.uid in advs
        return bool(dac.writers(inode, advs))

    def dac_adversary_readable(self, proc, inode):
        advs = self.dac_adversaries(proc)
        return bool(dac.readers(inode, advs))

    # ------------------------------------------------------------------
    # MAC view
    # ------------------------------------------------------------------

    def mac_adversaries(self, proc):
        """Subject types that are adversaries of ``proc`` under MAC."""
        if self.policy is None:
            return set()
        return {
            t
            for t in self.policy.types
            if not self.policy.is_tcb_subject(t) and t != proc.label
        }

    def _mac_access(self, proc, inode, perm):
        if self.policy is None:
            return False
        advs = self.mac_adversaries(proc)
        # Check every class the object could be accessed through; the
        # object's own class is what matters but labels are per-inode.
        for klass in ("file", "dir", "lnk_file", "sock_file", "unix_stream_socket"):
            allowed = self.policy.subjects_allowed(inode.label, klass, perm)
            if allowed & advs:
                return True
        return False

    def mac_adversary_writable(self, proc, inode):
        return self._mac_access(proc, inode, "write")

    def mac_adversary_readable(self, proc, inode):
        return self._mac_access(proc, inode, "read")

    # ------------------------------------------------------------------
    # combined view (what the firewall consumes)
    # ------------------------------------------------------------------

    def is_low_integrity(self, proc, inode):
        """True when an adversary of ``proc`` can write the resource.

        An access needs *both* DAC and MAC to grant it, so accessibility
        is the conjunction: a 0600 root-owned file in /tmp is high
        integrity even though MAC lets ``user_t`` at ``tmp_t`` objects,
        and an 0666 file labeled ``etc_t`` is high integrity on an
        SELinux system even though DAC is wide open.
        """
        if not self.dac_adversary_writable(proc, inode):
            return False
        if self.policy is None:
            return True
        return self.mac_adversary_writable(proc, inode)

    def is_low_secrecy(self, proc, inode):
        """True when an adversary of ``proc`` can read the resource."""
        if not self.dac_adversary_readable(proc, inode):
            return False
        if self.policy is None:
            return True
        return self.mac_adversary_readable(proc, inode)

    def is_high_integrity(self, proc, inode):
        return not self.is_low_integrity(proc, inode)
