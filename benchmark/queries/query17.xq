(: XMark Q17 — people without a homepage (emptiness predicate). :)
<out>{
  for $p in /site/people/person[empty(./homepage/text())]
  return <person><name>{$p/name/text()}</name></person>
}</out>
