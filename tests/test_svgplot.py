"""SVG plot text escaping."""

import html

from hypothesis import given
from hypothesis import strategies as st

from gralab.svgplot import Series, _escape, line_plot


def test_text_escapes_markup_and_keeps_quotes(tmp_path):
    # Element text needs only &, < and > escaped; quotes stay verbatim so
    # the bytes match what earlier versions wrote.
    text = 'a<b & "c">\'d\''
    line_plot(
        tmp_path / "plot.svg",
        [
            Series([0.0, 1.0], [0.0, 1.0], label=text),
            Series([0.5], [0.5], yerr=[0.1], label="&<>", mode="points"),
        ],
        title=text,
        xlabel=text,
        ylabel=text,
    )
    svg = (tmp_path / "plot.svg").read_text()
    assert svg.count('>a&lt;b &amp; "c"&gt;\'d\'</text>') == 4
    assert svg.count(">&amp;&lt;&gt;</text>") == 1
    assert text not in svg


@given(st.text())
def test_escape_is_html_escape_without_quotes(text):
    assert _escape(text) == html.escape(text, quote=False)
