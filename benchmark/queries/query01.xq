(: XMark Q1 — the name of the person with id "person0".
   The comparison predicate keeps a parameter alive after optimization
   (unlike Q2/Q13, which satisfy Theorem 2 and optimize to FTs). :)
<out>{
  for $b in /site/people/person[./person_id/text() = "person0"]
  return <name>{$b/name/text()}</name>
}</out>
