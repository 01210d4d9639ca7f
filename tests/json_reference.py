"""The recursive JSON emitter `laakso.cli.render_json` replaced: the
reference its flat emitter must equal, byte for byte."""

from laakso.cli import _ESCAPES


def render_json(obj, indent: int = 0) -> str:
    """Minimal JSON emitter: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {render_json(obj[k], indent + 1)}' for k in sorted(obj)
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, str):
        return f'"{obj.translate(_ESCAPES)}"'
    raise TypeError(f"cannot serialize {type(obj)}")
