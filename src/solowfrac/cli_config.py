"""The `--config` file: flat `key = value` lines, `#` comments."""

from .cli import COMMAND_KEYS, choices


def _read_config(path: str, command: str) -> dict:
    """The settings of `command` that the file at `path` gives, key -> value."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ValueError(f"--config: cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"--config: cannot read {path!r}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not any(key in keys for keys in COMMAND_KEYS.values()):
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in COMMAND_KEYS[command]:
            raise ValueError(f"{path}:{lineno}: {command!r} does not read key {key!r}")
        try:
            value = COMMAND_KEYS[command][key](val.strip())
            if (allowed := choices(key)) is not None and value not in allowed:
                raise ValueError(f"invalid choice {value!r}; choose from {', '.join(allowed)}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        values[key] = value
    return values
