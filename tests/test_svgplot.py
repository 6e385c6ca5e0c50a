"""SVG plot text escaping."""

from gralab.svgplot import Series, line_plot


def test_text_escapes_markup_and_keeps_quotes(tmp_path):
    # Element text needs only &, < and > escaped; quotes stay verbatim so
    # the bytes match what earlier versions wrote.
    text = 'a<b & "c">\'d\''
    line_plot(
        tmp_path / "plot.svg",
        [Series([0.0, 1.0], [0.0, 1.0], label=text)],
        title=text,
        xlabel=text,
        ylabel=text,
    )
    svg = (tmp_path / "plot.svg").read_text()
    assert svg.count('>a&lt;b &amp; "c"&gt;\'d\'</text>') == 4
    assert text not in svg
